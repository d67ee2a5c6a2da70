(* Early-deciding synchronous consensus: correctness (non-uniform) and the
   min(f'+2, f+1) decision-round shape. *)

module Pset = Rrfd.Pset

let s = Pset.of_list

let mask_crashed result =
  Array.mapi
    (fun i d ->
      if Pset.mem i result.Rrfd.Substrate.crashed then None else d)
    result.Rrfd.Substrate.decisions

let failure_free_decides_in_two_rounds () =
  let n = 6 and f = 4 in
  let inputs = Tasks.Inputs.distinct n in
  let result =
    Syncnet.Sync_net.run ~n ~rounds:(f + 1) ~pattern:(Syncnet.Faults.none ~n)
      ~algorithm:(Syncnet.Early_deciding.algorithm ~inputs ~f)
      ()
  in
  Array.iter
    (fun r -> Alcotest.(check (option int)) "round 2" (Some 2) r)
    result.Rrfd.Substrate.decision_rounds;
  Alcotest.(check (option string)) "consensus" None
    (Agreement_check.kset ~k:1 ~inputs result.Rrfd.Substrate.decisions)

let one_crash_decides_by_round_three () =
  let n = 6 and f = 4 in
  let inputs = Tasks.Inputs.distinct n in
  let pattern = Syncnet.Faults.crash ~n [ (0, 1, s [ 1 ]) ] in
  let result =
    Syncnet.Sync_net.run ~n ~rounds:(f + 1) ~pattern
      ~algorithm:(Syncnet.Early_deciding.algorithm ~inputs ~f)
      ()
  in
  Array.iteri
    (fun i r ->
      if not (Pset.mem i result.Rrfd.Substrate.crashed) then
        match r with
        | Some round ->
          Alcotest.(check bool)
            (Printf.sprintf "p%d decides by f'+2 = 3" i)
            true (round <= 3)
        | None -> Alcotest.failf "p%d undecided" i)
    result.Rrfd.Substrate.decision_rounds;
  Alcotest.(check (option string)) "consensus among live" None
    (Agreement_check.kset
       ~allow_undecided:result.Rrfd.Substrate.crashed ~k:1 ~inputs
       (mask_crashed result))

let early_deciding_correct_under_random_crashes =
  QCheck.Test.make
    ~name:"early deciding: non-uniform consensus, decisions by min(f'+2, f+1)"
    ~count:500
    QCheck.(pair (int_range 2 12) (int_bound 100000))
    (fun (n, seed) ->
      let rng = Dsim.Rng.create seed in
      let f = Dsim.Rng.int rng n in
      let inputs = Array.init n (fun i -> (i * 7) mod 4) in
      let pattern = Syncnet.Faults.random_crash rng ~n ~f ~max_round:(f + 1) in
      let result =
        Syncnet.Sync_net.run ~n ~rounds:(f + 1) ~pattern
          ~algorithm:(Syncnet.Early_deciding.algorithm ~inputs ~f)
          ()
      in
      let actual_failures =
        Pset.cardinal (Syncnet.Faults.faulty_processes pattern)
      in
      let bound = min (actual_failures + 2) (f + 1) in
      let rounds_ok =
        Array.for_all Fun.id
          (Array.mapi
             (fun i r ->
               Pset.mem i result.Rrfd.Substrate.crashed
               ||
               match r with Some round -> round <= bound | None -> false)
             result.Rrfd.Substrate.decision_rounds)
      in
      if not rounds_ok then
        QCheck.Test.fail_reportf "n=%d f=%d f'=%d: decision after round %d" n f
          actual_failures bound
      else
        match
          Agreement_check.kset
            ~allow_undecided:result.Rrfd.Substrate.crashed ~k:1 ~inputs
            (mask_crashed result)
        with
        | None -> true
        | Some reason -> QCheck.Test.fail_reportf "n=%d f=%d: %s" n f reason)

let chain_adversary_forces_late_decisions () =
  (* Against the E9 chain (k = 1) the early rule cannot fire early: some
     correct process decides only at round f' + 2. *)
  let k = 1 and chain_rounds = 3 in
  let n = Adversary.Lower_bound.required_processes ~k ~rounds:chain_rounds in
  let f = k * chain_rounds in
  let adv = Adversary.Lower_bound.build ~n ~k ~rounds:chain_rounds in
  let pattern = Syncnet.Faults.crash ~n adv.Adversary.Lower_bound.crash_specs in
  let result =
    Syncnet.Sync_net.run ~n ~rounds:(f + 2) ~pattern
      ~algorithm:
        (Syncnet.Early_deciding.algorithm ~inputs:adv.Adversary.Lower_bound.inputs ~f:(f + 1))
      ()
  in
  let latest =
    Array.fold_left
      (fun acc r -> match r with Some round -> max acc round | None -> acc)
      0 result.Rrfd.Substrate.decision_rounds
  in
  Alcotest.(check bool) "some process decides late" true (latest >= chain_rounds + 1);
  Alcotest.(check (option string)) "still consensus" None
    (Agreement_check.kset
       ~allow_undecided:result.Rrfd.Substrate.crashed ~k:1
       ~inputs:adv.Adversary.Lower_bound.inputs (mask_crashed result))

let tests =
  [
    Alcotest.test_case "failure-free: 2 rounds" `Quick
      failure_free_decides_in_two_rounds;
    Alcotest.test_case "one crash: ≤ 3 rounds" `Quick
      one_crash_decides_by_round_three;
    Alcotest.test_case "chain adversary forces lateness" `Quick
      chain_adversary_forces_late_decisions;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ early_deciding_correct_under_random_crashes ]
