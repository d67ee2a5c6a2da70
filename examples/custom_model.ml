(* Using the library as a framework: define your own RRFD system, place it
   in the Section-2 lattice, and test what it can solve.

   We invent a "majority-intersection" detector: every round, any two
   processes' unsuspected sets intersect in a majority of the system.
   Where does it sit relative to the paper's named models, and does
   one-round k-set agreement work under it?

     dune exec examples/custom_model.exe *)

module P = Rrfd.Predicate
module Pset = Rrfd.Pset

(* 1. The predicate: |S∖D(i,r) ∩ S∖D(j,r)| > n/2 for all i, j, r. *)
let majority_intersection =
  P.make ~name:"majority-intersection"
    ~doc:"any two heard-sets share a majority each round" (fun h ->
      let n = Rrfd.Fault_history.n h in
      let heard i r =
        Pset.diff (Pset.full n) (Rrfd.Fault_history.d h ~proc:i ~round:r)
      in
      let violation = ref None in
      for r = 1 to Rrfd.Fault_history.rounds h do
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            if
              !violation = None
              && 2 * Pset.cardinal (Pset.inter (heard i r) (heard j r)) <= n
            then
              violation :=
                Some (Printf.sprintf "p%d and p%d share no majority at round %d" i j r)
          done
        done
      done;
      !violation)

(* 2. A constructive adversary: everyone hears a common majority core plus
   arbitrary extras. *)
let majority_detector rng ~n =
  Rrfd.Detector.make ~name:"majority-core" (fun _h ->
      let core_size = (n / 2) + 1 in
      let core = Pset.random_subset_of_size rng (Pset.full n) core_size in
      Array.init n (fun _ ->
          let extras = Pset.random_subset rng (Pset.diff (Pset.full n) core) in
          Pset.diff (Pset.full n) (Pset.union core extras)))

let () =
  let n = 7 in
  let rng = Dsim.Rng.create 11 in

  Printf.printf "=== placing the custom model in the lattice (n = 3) ===\n";
  let relations =
    [
      ("majority ⇒ async(⌈n/2⌉−1)", majority_intersection, P.async_resilient ~f:1);
      ("majority ⇒ shm", majority_intersection, P.shared_memory ~f:1);
      ("majority ⇒ k-set(1)", majority_intersection, P.k_set ~k:1);
      ("snapshot(1) ⇒ majority", P.snapshot ~f:1, majority_intersection);
      ("shm(1) ⇒ majority", P.shared_memory ~f:1, majority_intersection);
    ]
  in
  List.iter
    (fun (name, a, b) ->
      let verdict = Rrfd.Submodel.check_exhaustive ~n:3 ~rounds:1 a b in
      Printf.printf "  %-28s %s\n" name
        (match verdict with
        | Rrfd.Submodel.Implies -> "holds"
        | Rrfd.Submodel.Counterexample _ -> "refuted"))
    relations;

  Printf.printf "\n=== what can it solve? ===\n";
  (* Majority intersection bounds the uncertainty: |∪D − ∩D| < n/2, so the
     one-round algorithm gives ⌈n/2⌉-set agreement "for free". *)
  let k = (n / 2) + 1 in
  let inputs = Tasks.Inputs.distinct n in
  let trials = 2000 in
  let worst = ref 0 in
  for _ = 1 to trials do
    let outcome =
      Rrfd.Engine.run ~n ~check:majority_intersection
        ~algorithm:(Rrfd.Kset.one_round ~inputs)
        ~detector:(majority_detector (Dsim.Rng.split rng) ~n)
        ()
    in
    assert (outcome.Rrfd.Substrate.violation = None);
    worst :=
      max !worst
        (Tasks.Agreement.distinct_decisions
           ~decisions:outcome.Rrfd.Substrate.decisions)
  done;
  Printf.printf
    "  one-round agreement over %d adversarial runs: worst %d distinct \
     values (guaranteed ≤ %d)\n"
    trials !worst k;

  Printf.printf "\n=== and what the engine catches ===\n";
  (* Hand the engine a detector that breaks the predicate: it reports the
     earliest bad round instead of computing garbage. *)
  let cheating =
    Rrfd.Detector.constant ~n
      (Array.init n (fun i -> Pset.remove i (Pset.full n)))
  in
  let outcome =
    Rrfd.Engine.run ~n ~check:majority_intersection ~stop_when_decided:false
      ~max_rounds:5
      ~algorithm:(Rrfd.Kset.one_round ~inputs)
      ~detector:cheating ()
  in
  Printf.printf "  cheating detector: %s\n"
    (match outcome.Rrfd.Substrate.violation with
    | Some reason -> "caught — " ^ reason
    | None -> "NOT caught (bug!)")
