(* Allocation smoke gate: proves the engine's steady-state rounds
   allocate zero minor-heap words.

   Method: run the same fixture twice with identical per-run setup —
   same n, same [max_rounds] (so the history arena is sized identically
   and never grows), same algorithm and detector — varying only how many
   steady-state rounds execute before a stopping predicate ends the run.
   Everything that allocates per run (states, decision arrays, the first
   round's emit-buffer sizing, the algorithm's round-1 transitions, the
   harness's own [Gc.minor_words] boxing) is present in both runs and
   cancels; the only difference is the extra steady-state rounds.  If
   those rounds allocate a single word, the two [Gc.minor_words] deltas
   differ and the gate fails.

   This is exact, not statistical: allocation on a fixed seed-free path
   is deterministic, so the deltas are compared with [=], no tolerance.

   Scope: universes small enough for the immediate Pset representation
   (n ≤ 62).  Wide universes store fault sets as heap arrays, so set
   algebra ([Pset.diff] inside [View.unsafe_set]) inherently allocates
   there; the hot-path discipline (DESIGN.md) claims zero allocation for
   the immediate representation only.

   Wired to the [@alloc-smoke] dune alias; CI runs it in the smoke
   matrix next to the determinism byte-compares. *)

let failures = ref 0

(* A predicate whose only job is to stop the run after [k] rounds.  The
   engine treats a predicate report as a violation and halts; returning a
   preallocated [Some] keeps the stop itself off the minor heap. *)
let stop_after k =
  let stop = Some "alloc-smoke: planned stop" in
  Rrfd.Predicate.make
    ~incr:(fun _h ~round -> if round >= k then stop else None)
    ~name:"alloc-smoke-stop" ~doc:"stops the run after k rounds"
    (fun h -> if Rrfd.Fault_history.rounds h >= k then stop else None)

(* Minor words allocated by [f ()].  The boxing of the second counter
   read lands after the read itself, so the delta is exact up to a
   constant that is identical across calls — and the gate only compares
   deltas against each other. *)
let minor_delta f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* [per_round ~run] is the exact number of minor words one extra
   steady-state round costs, measured as the delta between a 2-round and
   a 4-round execution of the same fixture. *)
let per_round ~run =
  ignore (run ~rounds:2);
  (* warm up: first call may trigger lazy initialisation *)
  let short = minor_delta (fun () -> run ~rounds:2) in
  let long = minor_delta (fun () -> run ~rounds:4) in
  (long -. short) /. 2.0

let check ~label ~run =
  let words = per_round ~run in
  if words = 0.0 then Printf.printf "  %-28s 0 words/round  OK\n" label
  else begin
    incr failures;
    Printf.printf "  %-28s %+.1f words/round  FAIL\n" label words
  end

(* One fixed fault set per process, constant across rounds: p0 misses
   p_{n-1}, everyone else misses nobody.  Constant detectors return the
   same array every query, so the detector contributes zero words. *)
let fixture n =
  let sets = Array.make n Rrfd.Pset.empty in
  sets.(0) <- Rrfd.Pset.of_list [ n - 1 ];
  let detector = Rrfd.Detector.constant ~n sets in
  let algorithm = Rrfd.Kset.one_round ~inputs:(Tasks.Inputs.distinct n) in
  (detector, algorithm)

let engine_kernel n ~rounds =
  let detector, algorithm = fixture n in
  ignore
    (Rrfd.Engine.run ~n ~max_rounds:4 ~check:(stop_after rounds)
       ~stop_when_decided:false ~algorithm ~detector ())

(* The same fixture through the protocol catalog's dispatch, which every
   experiment and the model checker use to reach the engine. *)
let substrate_dispatch n ~rounds =
  let detector, _ = fixture n in
  ignore
    (Protocols.Catalog.run_engine
       (Protocols.Catalog.find_exn "kset-one-round")
       ~inputs:(Tasks.Inputs.distinct n) ~check:(stop_after rounds)
       ~stop_when_decided:false ~max_rounds:4 ~n ~f:1 ~detector ())

let () =
  Printf.printf "=== alloc smoke: minor words per steady-state round ===\n";
  List.iter
    (fun n ->
      check
        ~label:(Printf.sprintf "kset-one-round n=%d" n)
        ~run:(engine_kernel n);
      check
        ~label:(Printf.sprintf "substrate-dispatch n=%d" n)
        ~run:(substrate_dispatch n))
    [ 4; 16; 48 ];
  if !failures > 0 then begin
    Printf.printf "alloc smoke: %d kernel(s) allocate in steady state\n"
      !failures;
    exit 1
  end;
  Printf.printf "alloc smoke: steady-state rounds are allocation-free\n"
