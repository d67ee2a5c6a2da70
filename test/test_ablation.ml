(* Ablations: which predicate ingredients carry which guarantees.

   The paper's models differ by small predicate clauses; these tests show
   the clauses are load-bearing:

   - adopt-commit is safe under the snapshot predicate (comparability) AND
     under the shared-memory predicate (someone seen by all), but breaks
     under bare async(f) once f ≥ n/2;
   - one-round k-set agreement breaks as soon as the detector may exceed
     the uncertainty bound;
   - the recording detector lets two algorithms face the same schedule. *)

module Pset = Rrfd.Pset
module Ac = Rrfd.Adopt_commit

let s = Pset.of_list

let adopt_commit_breaks_under_bare_async () =
  (* n = 3, f = 2: p0 partitioned from {p1,p2} for both rounds.  Two
     different values get committed — exactly what comparability or
     someone-seen-by-all rules out. *)
  let inputs = [| 1; 2; 2 |] in
  let round = [| s [ 1; 2 ]; s [ 0 ]; s [ 0 ] |] in
  let detector = Rrfd.Detector.of_schedule [ round; round ] in
  let outcome =
    Rrfd.Engine.run ~n:3
      ~check:(Rrfd.Predicate.async_resilient ~f:2)
      ~algorithm:(Ac.algorithm ~inputs) ~detector ()
  in
  Alcotest.(check (option string)) "the schedule is legal async(2)" None
    outcome.Rrfd.Substrate.violation;
  (match Ac.check_outcomes ~inputs outcome.Rrfd.Substrate.decisions with
  | Some reason ->
    Alcotest.(check bool) "agreement clause broken" true
      (String.length reason >= 9 && String.sub reason 0 9 = "agreement")
  | None -> Alcotest.fail "expected an adopt-commit violation");
  match (outcome.decisions.(0), outcome.decisions.(1)) with
  | Some (Ac.Commit 1), Some (Ac.Commit 2) -> ()
  | _ -> Alcotest.fail "expected two conflicting commits"

let adopt_commit_safe_under_shm_exhaustive () =
  (* Someone-seen-by-all restores safety: over every legal 2-round shm(2)
     history of a 3-process system, the spec holds. *)
  let inputs = [| 1; 2; 2 |] in
  let counterexample =
    Adversary.Enumerate.find ~n:3 ~rounds:2
      ~satisfying:(Rrfd.Predicate.shared_memory ~f:2)
      ~f:(fun h ->
        let rounds =
          List.init (Rrfd.Fault_history.rounds h) (fun r ->
              Rrfd.Fault_history.round_sets h ~round:(r + 1))
        in
        let detector = Rrfd.Detector.of_schedule rounds in
        let outcome =
          Rrfd.Engine.run ~n:3 ~algorithm:(Ac.algorithm ~inputs) ~detector ()
        in
        Ac.check_outcomes ~inputs outcome.Rrfd.Substrate.decisions <> None)
  in
  match counterexample with
  | None -> ()
  | Some h ->
    Alcotest.failf "adopt-commit broke under shm history %s"
      (Rrfd.Fault_history.to_string_compact h)

let kset_breaks_beyond_uncertainty_bound () =
  (* Uncertainty of exactly k distinct separations defeats the k-set bound:
     under a k-set(k+1) detector the one-round algorithm can output k+1
     values. *)
  let inputs = [| 10; 20; 30; 40 |] in
  (* Common part {3}, uncertainty {0,1}: legal for k = 3, illegal for
     k = 2 — and the algorithm outputs exactly 3 distinct values. *)
  let round = [| s [ 3 ]; s [ 0; 3 ]; s [ 0; 1; 3 ]; s [ 0; 1; 3 ] |] in
  let detector = Rrfd.Detector.of_schedule [ round ] in
  let outcome =
    Rrfd.Engine.run ~n:4 ~algorithm:(Rrfd.Kset.one_round ~inputs) ~detector ()
  in
  Alcotest.(check int) "3 distinct decisions" 3
    (Tasks.Agreement.distinct_decisions ~decisions:outcome.decisions);
  Alcotest.(check bool) "violates k=2" false
    (Rrfd.Predicate.holds (Rrfd.Predicate.k_set ~k:2) outcome.induced);
  Alcotest.(check bool) "satisfies k=3" true
    (Rrfd.Predicate.holds (Rrfd.Predicate.k_set ~k:3) outcome.induced)

let recording_detector_replays () =
  let rng = Dsim.Rng.create 31 in
  let base = Rrfd.Detector_gen.async rng ~n:4 ~f:1 in
  let recorded, log = Rrfd.Detector.recording base in
  let inputs = [| 0; 1; 2; 3 |] in
  let first =
    Rrfd.Engine.states_after ~n:4 ~rounds:3
      ~algorithm:(Rrfd.Full_info.algorithm ~inputs)
      ~detector:recorded ()
  in
  let replayed =
    Rrfd.Engine.states_after ~n:4 ~rounds:3
      ~algorithm:(Rrfd.Full_info.algorithm ~inputs)
      ~detector:(Rrfd.Detector.of_schedule (log ()))
      ()
  in
  Alcotest.(check bool) "identical histories" true
    (Rrfd.Fault_history.equal (snd first) (snd replayed));
  let v1 = (fst first).(2) and v2 = (fst replayed).(2) in
  Alcotest.(check bool) "identical views" true (Rrfd.Full_info.equal v1 v2)

let tests =
  [
    Alcotest.test_case "adopt-commit breaks under bare async" `Quick
      adopt_commit_breaks_under_bare_async;
    Alcotest.test_case "adopt-commit safe under shm (exhaustive)" `Slow
      adopt_commit_safe_under_shm_exhaustive;
    Alcotest.test_case "k-set breaks beyond the bound" `Quick
      kset_breaks_beyond_uncertainty_bound;
    Alcotest.test_case "recording detector replays" `Quick
      recording_detector_replays;
  ]
