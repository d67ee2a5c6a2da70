(* lib/report: the json codec, the regression-check verdicts, and the
   engine work counters the reports carry. *)

module R = Report
module J = Report.Json

let mk_report ?(subjects = []) ?(tables = []) ?speedup () =
  {
    R.version = R.version;
    meta =
      {
        R.seed = 7;
        jobs = 2;
        recommended_jobs = 4;
        git_sha = "abc1234";
        hostname = "host";
      };
    subjects;
    tables;
    speedup;
  }

let json_roundtrip () =
  let stat = { R.count = 3; mean = 1.5; stddev = 0.25; min = 1.0; max = 2.0 } in
  let r =
    mk_report
      ~subjects:
        [
          {
            R.name = "rrfd/kset-one-round n=4";
            ns_per_run = 1234.5;
            alloc_per_run = Some 96.0;
          };
          {
            R.name = "rrfd/floodset n=8 ⌊f/k⌋";
            ns_per_run = 0.125;
            alloc_per_run = None;
          };
        ]
      ~tables:
        [
          {
            R.id = "E6";
            title = "one-round k-set (Thm 3.1)";
            ok = true;
            counters = [ ("rounds", stat); ("messages", stat) ];
          };
          { R.id = "E9"; title = "lower bound"; ok = false; counters = [] };
        ]
      ~speedup:
        {
          R.trials = 100;
          jobs = 2;
          serial_s = 1.5;
          parallel_s = 0.75;
          factor = 2.0;
          identical = true;
        }
      ()
  in
  let r' = R.of_string (R.to_string r) in
  Alcotest.(check bool) "encode/decode round-trip" true (r = r');
  (* no speedup section encodes as null and survives too *)
  let r2 = mk_report () in
  Alcotest.(check bool) "empty report round-trip" true
    (r2 = R.of_string (R.to_string r2));
  (* reports written before the oversubscription guard lack
     recommended_jobs; they decode with the 0 = unrecorded sentinel.
     v1 baselines also predate alloc_per_run: subjects decode with None
     so old baselines stay comparable across the schema bump. *)
  let old =
    {|{"version": 1, "meta": {"seed": 1, "jobs": 2, "git_sha": "x",
       "hostname": "h"},
       "subjects": [{"name": "s", "ns_per_run": 7.0}],
       "tables": [], "speedup": null}|}
  in
  let decoded = R.of_string old in
  Alcotest.(check int) "tolerant recommended_jobs decode" 0
    decoded.R.meta.R.recommended_jobs;
  (match decoded.R.subjects with
  | [ s ] ->
    Alcotest.(check bool) "v1 subject has no alloc estimate" true
      (s.R.alloc_per_run = None)
  | _ -> Alcotest.fail "v1 subject list decoded wrong");
  (* a wrong version is refused *)
  match R.of_string {|{"version": 99, "meta": {}}|} with
  | exception J.Error _ -> ()
  | _ -> Alcotest.fail "accepted schema version 99"

let json_parser () =
  let j =
    J.of_string
      {|{"a": "line\nbreak \"q\" A", "n": [1, -2.5, true, null], "u": "⌊x⌋"}|}
  in
  Alcotest.(check string) "escapes" "line\nbreak \"q\" A" (J.str (J.member "a" j));
  (match J.list (J.member "n" j) with
  | [ a; b; c; d ] ->
    Alcotest.(check int) "int" 1 (J.int a);
    Alcotest.(check (float 0.0)) "float" (-2.5) (J.num b);
    Alcotest.(check bool) "bool" true (J.bool c);
    Alcotest.(check bool) "null reads as nan" true (Float.is_nan (J.num d))
  | _ -> Alcotest.fail "wrong array arity");
  Alcotest.(check string) "utf8 passthrough" "⌊x⌋" (J.str (J.member "u" j));
  Alcotest.(check bool) "absent member is Null" true
    (J.member "zzz" j = J.Null);
  let s = J.to_string (J.String "a\"b\\c\nd\te") in
  Alcotest.(check string) "writer escapes invert" "a\"b\\c\nd\te"
    (J.str (J.of_string s));
  Alcotest.(check bool) "nan writes as null" true
    (J.to_string (J.Number nan) = "null");
  List.iter
    (fun bad ->
      match J.of_string bad with
      | exception J.Error _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" bad))
    [ "{"; "[1,]"; "tru"; "\"unterminated"; "{} extra"; {|{"a" 1}|}; "" ]

let subject_verdicts () =
  let base ns = mk_report ~subjects:[ { R.name = "s"; ns_per_run = ns; alloc_per_run = None } ] () in
  let run old_ns new_ns =
    R.check ~tolerance_pct:50.0 ~baseline:(base old_ns) ~current:(base new_ns)
  in
  Alcotest.(check bool) "under tolerance" true (R.check_ok (run 100.0 149.0));
  Alcotest.(check bool) "exactly at tolerance" true
    (R.check_ok (run 100.0 150.0));
  let over = run 100.0 151.0 in
  Alcotest.(check bool) "over tolerance fails" false (R.check_ok over);
  Alcotest.(check (list string)) "regressed subject named" [ "s" ]
    over.R.regressions;
  Alcotest.(check bool) "improvement never gates" true
    (R.check_ok (run 100.0 1.0));
  let only name ns = mk_report ~subjects:[ { R.name; ns_per_run = ns; alloc_per_run = None } ] () in
  Alcotest.(check bool) "missing+new subjects don't gate" true
    (R.check_ok
       (R.check ~tolerance_pct:50.0 ~baseline:(only "a" 1.0)
          ~current:(only "b" 2.0)));
  Alcotest.(check bool) "no baseline estimate doesn't gate" true
    (R.check_ok (run nan 100.0))

let table_verdicts () =
  let tab ok =
    mk_report ~tables:[ { R.id = "E1"; title = "t"; ok; counters = [] } ] ()
  in
  let chk b c = R.check ~tolerance_pct:50.0 ~baseline:b ~current:c in
  Alcotest.(check bool) "ok/ok passes" true (R.check_ok (chk (tab true) (tab true)));
  Alcotest.(check bool) "fail/fail passes" true
    (R.check_ok (chk (tab false) (tab false)));
  let broken = chk (tab true) (tab false) in
  Alcotest.(check bool) "flip to failing gates" false (R.check_ok broken);
  Alcotest.(check (list string)) "broken table named" [ "E1" ]
    broken.R.broken_tables;
  let stale = chk (tab false) (tab true) in
  Alcotest.(check bool) "stale baseline status gates" false (R.check_ok stale);
  Alcotest.(check (list string)) "stale table named" [ "E1" ]
    stale.R.stale_tables;
  Alcotest.(check bool) "vanished ok-table gates" false
    (R.check_ok (chk (tab true) (mk_report ())))

let save_load_file () =
  let r = mk_report ~subjects:[ { R.name = "s"; ns_per_run = 42.0; alloc_per_run = None } ] () in
  let path = Filename.temp_file "rrfd_report" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      R.save ~pretty:false path (R.to_json r);
      Alcotest.(check bool) "save/load round-trip" true
        (R.load ~decode:R.of_json path = Ok r))

(* Engine counters against a run small enough to count by hand: n = 4, a
   fixed detector with D(0,r)=D(1,r)=D(2,r)={p3}, D(3,r)=∅ (satisfies the
   k=2 k-set predicate: |∪D − ∩D| = 1 < 2). *)
let engine_counters_hand_computed () =
  let n = 4 in
  let sets =
    [|
      Rrfd.Pset.of_list [ 3 ];
      Rrfd.Pset.of_list [ 3 ];
      Rrfd.Pset.of_list [ 3 ];
      Rrfd.Pset.empty;
    |]
  in
  let inputs = Tasks.Inputs.distinct n in
  let outcome =
    Rrfd.Engine.run ~n
      ~check:(Rrfd.Predicate.k_set ~k:2)
      ~algorithm:(Rrfd.Kset.one_round ~inputs)
      ~detector:(Rrfd.Detector.of_schedule [ sets ])
      ()
  in
  let c = outcome.Rrfd.Substrate.counters in
  Alcotest.(check int) "one round" 1 c.Rrfd.Counters.rounds;
  (* three processes hear 4−1 = 3 senders, p3 hears all 4: 3·3 + 4 = 13 *)
  Alcotest.(check int) "messages" 13 c.Rrfd.Counters.messages;
  Alcotest.(check int) "one detector query" 1 c.Rrfd.Counters.detector_queries;
  Alcotest.(check int) "one predicate check" 1 c.Rrfd.Counters.predicate_checks;
  Alcotest.(check int) "rounds counter = rounds_used"
    outcome.Rrfd.Substrate.rounds_used c.Rrfd.Counters.rounds;
  (* fixed horizon without a check: 3 of everything, 0 predicate checks *)
  let outcome2 =
    Rrfd.Engine.run ~n ~max_rounds:3 ~stop_when_decided:false
      ~algorithm:(Rrfd.Kset.one_round ~inputs)
      ~detector:(Rrfd.Detector.of_schedule [ sets ])
      ()
  in
  let c2 = outcome2.Rrfd.Substrate.counters in
  Alcotest.(check int) "three rounds" 3 c2.Rrfd.Counters.rounds;
  Alcotest.(check int) "messages accumulate" 39 c2.Rrfd.Counters.messages;
  Alcotest.(check int) "three detector queries" 3
    c2.Rrfd.Counters.detector_queries;
  Alcotest.(check int) "no predicate checks" 0 c2.Rrfd.Counters.predicate_checks

let counters_aggregation () =
  let a =
    {
      Rrfd.Counters.rounds = 1;
      messages = 13;
      detector_queries = 1;
      predicate_checks = 1;
    }
  in
  Alcotest.(check bool) "zero is neutral" true
    (Rrfd.Counters.add Rrfd.Counters.zero a = a);
  let b = Rrfd.Counters.add a a in
  Alcotest.(check int) "field-wise sum" 26 b.Rrfd.Counters.messages;
  Alcotest.(check (list string)) "stable field order"
    [ "rounds"; "messages"; "detector-queries"; "predicate-checks" ]
    (List.map fst (Rrfd.Counters.to_fields a));
  (match Experiments.Table.counter_stats [| a; b |] with
  | ("rounds", s) :: rest ->
    Alcotest.(check (float 1e-9)) "rounds mean" 1.5 s.Runtime.Stats.mean;
    let msgs = List.assoc "messages" rest in
    Alcotest.(check (float 1e-9)) "messages mean" 19.5 msgs.Runtime.Stats.mean;
    Alcotest.(check int) "trial count" 2 msgs.Runtime.Stats.count
  | _ -> Alcotest.fail "unexpected counter_stats shape");
  Alcotest.(check bool) "empty trials, empty stats" true
    (Experiments.Table.counter_stats [||] = [])

let tests =
  [
    Alcotest.test_case "report json round-trip" `Quick json_roundtrip;
    Alcotest.test_case "json parser" `Quick json_parser;
    Alcotest.test_case "check: subject verdicts" `Quick subject_verdicts;
    Alcotest.test_case "check: table status" `Quick table_verdicts;
    Alcotest.test_case "save/load" `Quick save_load_file;
    Alcotest.test_case "engine counters (hand-computed)" `Quick
      engine_counters_hand_computed;
    Alcotest.test_case "counters aggregation" `Quick counters_aggregation;
  ]
