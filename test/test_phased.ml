(* Phased consensus under the eventually-stable RRFD. *)

let run ~n ~f ~stabilize_at ~seed ~inputs =
  let rng = Dsim.Rng.create seed in
  Rrfd.Engine.run ~n
    ~max_rounds:(Rrfd.Phased_consensus.rounds_needed ~stabilize_at)
    ~check:(Rrfd.Phased_consensus.predicate ~f ~stabilize_at)
    ~algorithm:(Rrfd.Phased_consensus.algorithm ~inputs)
    ~detector:(Rrfd.Phased_consensus.detector rng ~n ~f ~stabilize_at)
    ()

let immediate_stability_one_phase () =
  let inputs = [| 4; 5; 6; 7 |] in
  let outcome = run ~n:4 ~f:3 ~stabilize_at:1 ~seed:3 ~inputs in
  Alcotest.(check (option string)) "legal adversary" None
    outcome.Rrfd.Substrate.violation;
  Alcotest.(check int) "one phase" 3 outcome.Rrfd.Substrate.rounds_used;
  Alcotest.(check (option string)) "consensus" None
    (Agreement_check.kset ~k:1 ~inputs outcome.Rrfd.Substrate.decisions)

let consensus_property =
  QCheck.Test.make
    ~name:"phased consensus: agreement/validity always, termination at GST"
    ~count:400
    QCheck.(triple (int_range 2 12) (int_bound 100000) (int_range 1 12))
    (fun (n, seed, stabilize_at) ->
      let f = n - 1 in
      let inputs = Array.init n (fun i -> 100 + (i mod 3)) in
      let outcome = run ~n ~f ~stabilize_at ~seed ~inputs in
      match outcome.Rrfd.Substrate.violation with
      | Some v -> QCheck.Test.fail_reportf "adversary illegal: %s" v
      | None -> (
        match Agreement_check.kset ~k:1 ~inputs outcome.decisions with
        | None -> true
        | Some reason ->
          QCheck.Test.fail_reportf "n=%d GST=%d: %s" n stabilize_at reason))

let early_commit_is_sticky =
  (* Safety alone (no termination): run only pre-stabilisation phases under
     a fully adversarial detector and check every decided value agrees. *)
  QCheck.Test.make ~name:"phased consensus: early commits are sticky" ~count:400
    QCheck.(pair (int_range 2 10) (int_bound 100000))
    (fun (n, seed) ->
      let f = n - 1 in
      let stabilize_at = 100 (* never, within this horizon *) in
      let rng = Dsim.Rng.create seed in
      let inputs = Array.init n (fun i -> i mod 2) in
      let outcome =
        Rrfd.Engine.run ~n ~max_rounds:15 ~stop_when_decided:false
          ~check:(Rrfd.Phased_consensus.predicate ~f ~stabilize_at)
          ~algorithm:(Rrfd.Phased_consensus.algorithm ~inputs)
          ~detector:(Rrfd.Phased_consensus.detector rng ~n ~f ~stabilize_at)
          ()
      in
      let decided =
        Array.to_list outcome.Rrfd.Substrate.decisions |> List.filter_map Fun.id
      in
      match List.sort_uniq compare decided with
      | [] | [ _ ] -> true
      | _ :: _ :: _ -> QCheck.Test.fail_reportf "two different early decisions")

let rounds_needed_formula () =
  Alcotest.(check int) "GST 1 → 1 phase" 3
    (Rrfd.Phased_consensus.rounds_needed ~stabilize_at:1);
  Alcotest.(check int) "GST 4 → 2 phases" 6
    (Rrfd.Phased_consensus.rounds_needed ~stabilize_at:4);
  Alcotest.(check int) "GST 5 → 3 phases" 9
    (Rrfd.Phased_consensus.rounds_needed ~stabilize_at:5)

let tests =
  [
    Alcotest.test_case "immediate stability" `Quick immediate_stability_one_phase;
    Alcotest.test_case "rounds formula" `Quick rounds_needed_formula;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ consensus_property; early_commit_is_sticky ]
