(* The adopt-commit protocol: pure functions, the RRFD two-round version,
   and the register version (Section 4.2). *)

module Ac = Rrfd.Adopt_commit

let propose_commit_on_unanimity () =
  (match Ac.propose ~own:5 ~seen:[ 5; 5; 5 ] with
  | Ac.Commit_vote 5 -> ()
  | _ -> Alcotest.fail "expected commit vote 5");
  match Ac.propose ~own:5 ~seen:[ 5; 6 ] with
  | Ac.Adopt_vote 5 -> ()
  | _ -> Alcotest.fail "expected adopt vote of own value"

let resolve_cases () =
  (match Ac.resolve ~own:1 ~seen:[ Ac.Commit_vote 9; Ac.Commit_vote 9 ] with
  | Ac.Commit 9 -> ()
  | _ -> Alcotest.fail "unanimous commits commit");
  (match Ac.resolve ~own:1 ~seen:[ Ac.Commit_vote 9; Ac.Adopt_vote 2 ] with
  | Ac.Adopt 9 -> ()
  | _ -> Alcotest.fail "mixed with a commit adopts the committed value");
  match Ac.resolve ~own:1 ~seen:[ Ac.Adopt_vote 2; Ac.Adopt_vote 3 ] with
  | Ac.Adopt 1 -> ()
  | _ -> Alcotest.fail "no commit adopts own"

let run_rrfd ~n ~seed ~inputs =
  let rng = Dsim.Rng.create seed in
  let detector = Rrfd.Detector_gen.iis rng ~n ~f:(n - 1) in
  let outcome =
    Rrfd.Engine.run ~n
      ~check:(Rrfd.Predicate.snapshot ~f:(n - 1))
      ~algorithm:(Ac.algorithm ~inputs) ~detector ()
  in
  outcome

let rrfd_two_rounds () =
  let outcome = run_rrfd ~n:4 ~seed:7 ~inputs:[| 1; 2; 1; 2 |] in
  Alcotest.(check int) "two rounds" 2 outcome.Rrfd.Substrate.rounds_used;
  Alcotest.(check (option string)) "spec holds" None
    (Ac.check_outcomes ~inputs:[| 1; 2; 1; 2 |] outcome.decisions)

let rrfd_property =
  QCheck.Test.make
    ~name:"RRFD adopt-commit meets its spec under snapshot adversaries"
    ~count:500
    QCheck.(triple (int_range 2 12) (int_bound 100000) (int_range 1 3))
    (fun (n, seed, universe) ->
      let rng = Dsim.Rng.create (seed * 31) in
      let inputs = Array.init n (fun _ -> Dsim.Rng.int rng universe) in
      let outcome = run_rrfd ~n ~seed ~inputs in
      match outcome.Rrfd.Substrate.violation with
      | Some v -> QCheck.Test.fail_reportf "adversary broke predicate: %s" v
      | None -> (
        match Ac.check_outcomes ~inputs outcome.Rrfd.Substrate.decisions with
        | None -> true
        | Some reason -> QCheck.Test.fail_reportf "n=%d: %s" n reason))

let register_version_roundrobin () =
  let inputs = [| 3; 3; 3 |] in
  let r = Shm.Adopt_commit_shm.run ~inputs ~schedule:Shm.Exec.Round_robin in
  Alcotest.(check (option string)) "all commit on agreement" None
    (Ac.check_outcomes ~inputs
       (Array.map Option.some r.Shm.Adopt_commit_shm.outcomes));
  Array.iter
    (fun o ->
      Alcotest.(check bool) "committed" true (Ac.is_commit o);
      Alcotest.(check int) "value 3" 3 (Ac.value_of o))
    r.Shm.Adopt_commit_shm.outcomes

let register_version_solo_first () =
  (* p0 runs to completion before anyone else steps: it must commit. *)
  let inputs = [| 1; 2 |] in
  let solo_prefix = List.init 20 (fun _ -> 0) in
  let r =
    Shm.Adopt_commit_shm.run ~inputs ~schedule:(Shm.Exec.Fixed solo_prefix)
  in
  (match r.Shm.Adopt_commit_shm.outcomes.(0) with
  | Ac.Commit 1 -> ()
  | o ->
    Alcotest.failf "solo process should commit its value, got %a"
      (Ac.pp_outcome Format.pp_print_int)
      o);
  Alcotest.(check (option string)) "agreement carried" None
    (Ac.check_outcomes ~inputs
       (Array.map Option.some r.Shm.Adopt_commit_shm.outcomes))

let register_property =
  QCheck.Test.make
    ~name:"register adopt-commit meets its spec under random interleavings"
    ~count:500
    QCheck.(triple (int_range 1 10) (int_bound 100000) (int_range 1 3))
    (fun (n, seed, universe) ->
      let rng = Dsim.Rng.create seed in
      let inputs = Array.init n (fun _ -> Dsim.Rng.int rng universe) in
      let r =
        Shm.Adopt_commit_shm.run ~inputs
          ~schedule:(Shm.Exec.Random (Dsim.Rng.split rng))
      in
      match
        Ac.check_outcomes ~inputs
          (Array.map Option.some r.Shm.Adopt_commit_shm.outcomes)
      with
      | None -> true
      | Some reason -> QCheck.Test.fail_reportf "n=%d: %s" n reason)

let tests =
  [
    Alcotest.test_case "propose" `Quick propose_commit_on_unanimity;
    Alcotest.test_case "resolve" `Quick resolve_cases;
    Alcotest.test_case "RRFD version, two rounds" `Quick rrfd_two_rounds;
    Alcotest.test_case "register version, round robin" `Quick
      register_version_roundrobin;
    Alcotest.test_case "register version, solo run" `Quick
      register_version_solo_first;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ rrfd_property; register_property ]
