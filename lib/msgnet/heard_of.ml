module Pset = Rrfd.Pset

(* Per process, the heard-from and lied-to sets of completed rounds,
   newest first.  The two lists advance in lockstep: one entry each per
   [note].  "Silent toward i" (complement of heard) and "lied to i"
   (arrived, but with non-canonical content) are deliberately separate
   records — a crash looks like the former everywhere, a Byzantine
   process can be cleanly one, the other, or both. *)
type t = { n : int; per_proc : Pset.t list array; lied_to : Pset.t list array }

let create ~n =
  if n < 1 || n > Pset.max_universe then invalid_arg "Heard_of.create: bad n";
  { n; per_proc = Array.make n []; lied_to = Array.make n [] }

let n t = t.n

let completed t i =
  if i < 0 || i >= t.n then invalid_arg "Heard_of.completed: bad proc";
  List.length t.per_proc.(i)

let note t i ~round ?(lied = Pset.empty) ~heard () =
  if i < 0 || i >= t.n then invalid_arg "Heard_of.note: bad proc";
  if round <> List.length t.per_proc.(i) + 1 then
    invalid_arg "Heard_of.note: rounds must be noted in order";
  if not (Pset.subset heard (Pset.full t.n)) then
    invalid_arg "Heard_of.note: heard set outside the system";
  (* A lie is only observable on a message that arrived. *)
  if not (Pset.subset lied heard) then
    invalid_arg "Heard_of.note: lied set must be within the heard set";
  t.per_proc.(i) <- heard :: t.per_proc.(i);
  t.lied_to.(i) <- lied :: t.lied_to.(i)

let heard t ~proc ~round =
  if proc < 0 || proc >= t.n then invalid_arg "Heard_of.heard: bad proc";
  let l = t.per_proc.(proc) in
  let c = List.length l in
  if round < 1 || round > c then None else Some (List.nth l (c - round))

let lied t ~proc ~round =
  if proc < 0 || proc >= t.n then invalid_arg "Heard_of.lied: bad proc";
  let l = t.lied_to.(proc) in
  let c = List.length l in
  if round < 1 || round > c then None else Some (List.nth l (c - round))

let rounds t = Array.fold_left (fun m l -> max m (List.length l)) 0 t.per_proc

let history_of_rows t rows ~cell =
  let r_max = rounds t in
  let chron = Array.map List.rev rows in
  let round_sets r =
    Array.map
      (fun l ->
        match List.nth_opt l (r - 1) with
        | Some h -> cell h
        | None -> Pset.empty)
      chron
  in
  Rrfd.Fault_history.of_rounds ~n:t.n
    (List.init r_max (fun r -> round_sets (r + 1)))

let to_history t =
  let full = Pset.full t.n in
  history_of_rows t t.per_proc ~cell:(fun h -> Pset.diff full h)

let to_lie_history t = history_of_rows t t.lied_to ~cell:(fun l -> l)

let to_byz_history t =
  Rrfd.Fault_history.union (to_history t) (to_lie_history t)

let paper_predicates ~f =
  [
    ("P1", Rrfd.Predicate.omission ~f);
    ("P2", Rrfd.Predicate.crash ~f);
    ("P3", Rrfd.Predicate.async_resilient ~f);
    ("P4", Rrfd.Predicate.shared_memory ~f);
    ("P5", Rrfd.Predicate.snapshot ~f);
  ]

let classify ~f history =
  List.map
    (fun (name, p) -> (name, Rrfd.Predicate.holds p history))
    (paper_predicates ~f)
