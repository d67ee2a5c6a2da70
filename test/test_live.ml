(* The live substrate: patience-spec parsing, mailbox semantics,
   well-formedness of scheduler-induced histories, the execution record's
   invariants, the live→pinned-replay differential at stress volume, and
   recording artifacts through check --replay's code path.

   Everything here runs real domains, so failures can be
   some-interleavings bugs: the qcheck and stress cases deliberately
   repeat across sizes and policies rather than asserting on one run. *)

module Pset = Rrfd.Pset

let all_policies =
  [
    Live.Patience.Wait_all;
    Live.Patience.Wait_quorum;
    (* generous enough to terminate promptly, tight enough that a loaded
       scheduler induces real omission *)
    Live.Patience.Deadline 50_000L;
  ]

(* Patience specs: parse, render, reject. *)
let patience_specs () =
  List.iter
    (fun p ->
      match Live.Patience.of_spec (Live.Patience.to_string p) with
      | Ok p' ->
        Alcotest.(check string)
          "roundtrip"
          (Live.Patience.to_string p)
          (Live.Patience.to_string p')
      | Error e -> Alcotest.fail e)
    all_policies;
  (match Live.Patience.of_spec "deadline:us=40" with
  | Ok (Live.Patience.Deadline ns) ->
    Alcotest.(check int64) "us scales" 40_000L ns
  | _ -> Alcotest.fail "deadline:us=40 should parse");
  (match Live.Patience.of_spec "deadline:ms=2" with
  | Ok (Live.Patience.Deadline ns) ->
    Alcotest.(check int64) "ms scales" 2_000_000L ns
  | _ -> Alcotest.fail "deadline:ms=2 should parse");
  List.iter
    (fun bad ->
      match Live.Patience.of_spec bad with
      | Ok _ -> Alcotest.failf "spec %S should not parse" bad
      | Error _ -> ())
    [ "eventually"; "deadline"; "deadline:s=1"; "deadline:ns=-5"; "quorum:n=2" ]

(* Mailbox semantics, single-threaded: arrival order, drain-on-receive,
   deadline expiry. *)
let mailbox_basics () =
  let box = Live.Mailbox.create () in
  Live.Mailbox.post box ~from:1 ~round:1 "a";
  Live.Mailbox.post box ~from:2 ~round:1 "b";
  Live.Mailbox.post box ~from:1 ~round:2 "c";
  Alcotest.(check (list (triple int int string)))
    "arrival order"
    [ (1, 1, "a"); (2, 1, "b"); (1, 2, "c") ]
    (Live.Mailbox.receive box ());
  (* empty box + deadline in the past: returns promptly and empty *)
  let deadline = Int64.add (Live.Mailbox.now_ns ()) 1_000L in
  Alcotest.(check (list (triple int int string)))
    "deadline expiry yields nothing" []
    (Live.Mailbox.receive box ~deadline_ns:deadline ())

(* A blocked receiver is woken by a post from another domain, and a poke
   wakes it with nothing pending. *)
let mailbox_cross_domain () =
  let box = Live.Mailbox.create () in
  let sender =
    Domain.spawn (fun () ->
        Unix.sleepf 0.002;
        Live.Mailbox.post box ~from:0 ~round:1 42)
  in
  Alcotest.(check (list (triple int int int)))
    "blocked receive woken by post"
    [ (0, 1, 42) ]
    (Live.Mailbox.receive box ());
  Domain.join sender;
  (* a poke is not sticky (unlike mail), so keep poking until the
     receiver has come back — one shot could land before it blocks *)
  let woke = Atomic.make false in
  let poker =
    Domain.spawn (fun () ->
        while not (Atomic.get woke) do
          Live.Mailbox.poke box;
          Unix.sleepf 0.0005
        done)
  in
  let got = Live.Mailbox.receive box () in
  Atomic.set woke true;
  Domain.join poker;
  Alcotest.(check (list (triple int int int))) "poke wakes with nothing" [] got

(* Live histories are well-formed whatever the scheduler did: every
   process completes the full horizon (the record is total, the
   degenerate prefix-closure), no process ever suspects itself, and
   quorum patience bounds every fault set by f (P3 by construction). *)
let histories_well_formed =
  QCheck.Test.make ~name:"live histories are total and never self-suspect"
    ~count:40
    QCheck.(pair (int_range 2 6) (int_bound 2))
    (fun (n, which) ->
      let patience = List.nth all_policies which in
      let f = (n - 1) / 2 in
      let proto = Protocols.Catalog.find_exn "flood-consensus" in
      let rounds = Protocols.Catalog.horizon proto ~n ~f in
      let ex = Protocols.Catalog.run_live proto ~patience ~n ~f ~rounds () in
      let h = ex.Rrfd.Substrate.induced in
      if Rrfd.Fault_history.rounds h <> rounds then
        QCheck.Test.fail_reportf "history has %d rounds, horizon %d"
          (Rrfd.Fault_history.rounds h)
          rounds;
      Array.iteri
        (fun i c ->
          if c <> rounds then
            QCheck.Test.fail_reportf "p%d completed %d/%d rounds" i c rounds)
        ex.Rrfd.Substrate.completed;
      for round = 1 to rounds do
        for i = 0 to n - 1 do
          let d = Rrfd.Fault_history.d h ~proc:i ~round in
          if Pset.mem i d then
            QCheck.Test.fail_reportf "p%d ∈ D(p%d,%d)" i i round;
          if patience = Live.Patience.Wait_quorum && Pset.cardinal d > f then
            QCheck.Test.fail_reportf
              "quorum patience induced |D(p%d,%d)| = %d > f = %d" i round
              (Pset.cardinal d) f
        done
      done;
      true)

(* The uniform execution record: the live substrate is the only one that
   reports real elapsed time, never crashes anybody, and counts exactly
   the delivered slots the history describes. *)
let execution_record () =
  let proto = Protocols.Catalog.find_exn "adopt-commit" in
  let n = 4 and f = 1 in
  let ex = Protocols.Catalog.run_live proto ~n ~f () in
  Alcotest.(check string) "substrate name" "live" ex.Rrfd.Substrate.substrate;
  (match ex.Rrfd.Substrate.wall_ns with
  | Some ns ->
    Alcotest.(check bool) "wall clock positive" true (Int64.compare ns 0L > 0)
  | None -> Alcotest.fail "live execution must carry wall_ns");
  Alcotest.(check bool) "nobody crashed" true
    (Pset.is_empty ex.Rrfd.Substrate.crashed);
  Alcotest.(check (option string)) "no violation" None
    ex.Rrfd.Substrate.violation;
  let h = ex.Rrfd.Substrate.induced in
  let expected_messages =
    let total = ref 0 in
    for round = 1 to Rrfd.Fault_history.rounds h do
      for i = 0 to n - 1 do
        total :=
          !total + n - Pset.cardinal (Rrfd.Fault_history.d h ~proc:i ~round)
      done
    done;
    !total
  in
  Alcotest.(check int) "messages = Σ (n − |D(i,r)|)" expected_messages
    ex.Rrfd.Substrate.counters.Rrfd.Counters.messages;
  Alcotest.(check int) "no detector queries" 0
    ex.Rrfd.Substrate.counters.Rrfd.Counters.detector_queries

(* An algorithm exception in one worker aborts the run and surfaces, and
   the runner rejects nonsense dimensions. *)
let failure_modes () =
  let bomb =
    {
      Rrfd.Algorithm.name = "bomb";
      init = (fun ~n:_ i -> i);
      emit = (fun i ~round:_ -> i);
      deliver =
        (fun i ~round:_ ~view:_ -> if i = 1 then failwith "kaboom" else i);
      decide = (fun _ -> None);
    }
  in
  Alcotest.check_raises "worker failure propagates" (Failure "kaboom")
    (fun () -> ignore (Live.run ~n:3 ~f:1 ~rounds:2 ~algorithm:bomb ()));
  let ok = { bomb with Rrfd.Algorithm.deliver = (fun i ~round:_ ~view:_ -> i) } in
  List.iter
    (fun (n, f, rounds) ->
      match Live.run ~n ~f ~rounds ~algorithm:ok () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "n=%d f=%d rounds=%d should be rejected" n f rounds)
    [ (0, 0, 1); (3, 3, 1); (3, -1, 1); (3, 1, -1) ]

(* The PR's hard gate: ≥200 seeded live runs across ≥3 protocols and all
   patience policies, every one's pinned engine replay bit-for-bit equal
   to the live decisions. *)
let differential_stress () =
  let protocols = [ "flood-consensus"; "adopt-commit"; "kset-one-round" ] in
  let n = 5 and f = 2 in
  let per_cell = 23 in
  (* 3 × 3 × 23 = 207 runs *)
  let total = ref 0 in
  List.iter
    (fun name ->
      let proto = Protocols.Catalog.find_exn name in
      List.iter
        (fun patience ->
          for trial = 0 to per_cell - 1 do
            incr total;
            let rng = Dsim.Rng.derive ~seed:23 ~stream:!total in
            ignore trial;
            let inputs = Protocols.Catalog.default_inputs ~n in
            Dsim.Rng.shuffle_in_place rng inputs;
            let ex = Protocols.Catalog.run_live proto ~inputs ~patience ~n ~f () in
            let d = Protocols.Catalog.differential proto ~inputs ~f ex in
            match d.divergence with
            | None -> ()
            | Some i ->
              Alcotest.failf
                "%s under %s: live decisions diverged from the pinned replay \
                 at p%d (history %s)"
                name
                (Live.Patience.to_string patience)
                i
                (Rrfd.Fault_history.to_string_compact ex.Rrfd.Substrate.induced)
          done)
        all_policies)
    protocols;
  Alcotest.(check bool) "≥200 runs" true (!total >= 200)

(* A recorded live history survives the full artifact round-trip: save,
   load, replay through Checker.test_history, reproduced. *)
let record_roundtrip () =
  let proto = Protocols.Catalog.find_exn "flood-consensus" in
  let n = 5 and f = 2 in
  let ex = Protocols.Catalog.run_live proto ~n ~f () in
  match
    Check.Artifact.record ~sut_spec:"flood-consensus" ~n
      ~history:ex.Rrfd.Substrate.induced ()
  with
  | Error e -> Alcotest.fail e
  | Ok artifact ->
    let path = Filename.temp_file ~temp_dir:"." "live_record" ".json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Check.Artifact.save path artifact;
        match Result.bind (Check.Artifact.load path) Check.Artifact.replay with
        | Error e -> Alcotest.fail e
        | Ok replay ->
          Alcotest.(check bool) "clean recording" false
            replay.Check.Artifact.failure_expected;
          Alcotest.(check bool) "no failure on replay" true
            (replay.Check.Artifact.failure = None);
          Alcotest.(check bool) "reproduced" true
            (Check.Artifact.reproduced replay))

(* effective_jobs: the oversubscription guard never exceeds
   recommended/n_procs, never goes below 1, and respects an explicit cap. *)
let effective_jobs_guard () =
  let recommended = Domain.recommended_domain_count () in
  List.iter
    (fun n_procs ->
      let j = Live.effective_jobs ~n_procs () in
      Alcotest.(check bool)
        (Printf.sprintf "1 ≤ jobs ≤ recommended/n at n=%d" n_procs)
        true
        (j >= 1 && j <= max 1 (recommended / n_procs)))
    [ 1; 2; 7; 64; 10_000 ];
  Alcotest.(check int) "explicit cap respected" 1
    (Live.effective_jobs ~jobs:1 ~n_procs:1 ())

let ok_or_fail = function Ok v -> v | Error e -> Alcotest.fail e

(* One valid artifact of every kind with a decoder, each packed as
   (kind, encoded JSON, decode-then-re-encode, the loader the CLI uses). *)
let codec kind ~to_json ~of_json ~load value =
  ( kind,
    to_json value,
    (fun json -> Report.Json.to_string (to_json (of_json json))),
    fun path -> Result.map ignore (load path) )

let artifact_codecs =
  lazy
    (let records = Experiments.E23_live.collect ~trials:1 () in
     let ce =
       match
         Check.Checker.fuzz
           { Check.Checker.n = 4; rounds = 1; trials = 500; seed = 7;
             jobs = Some 1; attempts = 64 }
           ~sut:Check.Sut.kset_one_round ~predicate:(Rrfd.Predicate.k_set ~k:3)
           ~properties:[ ok_or_fail (Check.Spec.property "k-agreement:k=2") ]
           ()
       with
       | Some ce -> ce
       | None -> Alcotest.fail "seeded k-set violation not found"
     in
     let w =
       Check.Byz_check.derive_witness ~n:4 ~f:1 ~byz:2 ~forge:true
         ~rng:(Dsim.Rng.create 3)
     in
     let derivation =
       ok_or_fail
         (Check.Derive.derive
            ~cfg:
              { Check.Derive.default_config with
                observe_trials = 20; certify_trials = 20; seed = 9 }
            ~policy:"drop:p=30" ())
     in
     [
       codec "rrfd-live-grid" ~to_json:Experiments.E23_live.to_json
         ~of_json:Experiments.E23_live.of_json
         ~load:(Report.load ~decode:Experiments.E23_live.of_json)
         records;
       codec "rrfd-counterexample" ~to_json:Check.Artifact.to_json
         ~of_json:Check.Artifact.of_json ~load:Check.Artifact.load
         (Check.Artifact.make ~sut_spec:"kset-one-round"
            ~predicate_spec:"kset:k=3" ~property_specs:[ "k-agreement:k=2" ]
            ~seed:7 ce);
       codec "e24-byz" ~to_json:Check.Byz_check.to_json
         ~of_json:Check.Byz_check.of_json ~load:Check.Byz_check.load
         (Check.Byz_check.of_outcome w (Check.Byz_check.run_witness w));
       codec "e26-derive" ~to_json:Check.Derive.to_json
         ~of_json:Check.Derive.of_json ~load:Check.Derive.load derivation;
     ])

let replace_field key value = function
  | Report.Json.Obj fields ->
    Report.Json.Obj
      (List.map (fun (k, v) -> (k, if k = key then value else v)) fields)
  | _ -> Alcotest.fail "artifact JSON is not an object"

(* Every artifact codec: encode -> decode -> encode is byte-identical;
   E23's table also regenerates from decoded records. *)
let e23_codec () =
  List.iter
    (fun (kind, json, reencode, _) ->
      let s = Report.Json.to_string json in
      Alcotest.(check string) (kind ^ " codec roundtrip") s
        (reencode (Report.Json.of_string s)))
    (Lazy.force artifact_codecs);
  let _, live_grid, _, _ = List.hd (Lazy.force artifact_codecs) in
  Alcotest.(check bool) "table regenerates ok" true
    (Experiments.Table.ok
       (Experiments.E23_live.table_of (Experiments.E23_live.of_json live_grid)))

(* Hostile input at every artifact loader — a missing file, non-JSON
   bytes, another kind's valid artifact, a future version, a seed that is
   not a decimal integer, a size the replay cannot run — gives [Error],
   never an exception. *)
let hostile_artifacts () =
  let codecs = Lazy.force artifact_codecs in
  let dir = Filename.temp_dir "rrfd_hostile" "" in
  let file name contents =
    let path = Filename.concat dir (name ^ ".json") in
    Out_channel.with_open_bin path (fun oc -> output_string oc contents);
    path
  in
  let json_file name json = file name (Report.Json.to_string json) in
  let inputs =
    (Filename.concat dir "missing.json", None)
    :: (file "garbage" "{\"version\": 1, \"kind\"", None)
    :: List.concat_map
         (fun (kind, json, _, _) ->
           [
             (json_file kind json, Some kind);
             ( json_file (kind ^ "-v99")
                 (replace_field "version" (Report.Json.Number 99.0) json),
               None );
           ])
         codecs
    @
    let json_of kind =
      let _, json, _, _ = List.find (fun (k, _, _, _) -> k = kind) codecs in
      json
    in
    let byz = json_of "e24-byz" and derive = json_of "e26-derive" in
    let num v = Report.Json.Number (float_of_int v) in
    (* Well-formed files whose sizes the replay cannot run. *)
    let out_of_range name key v json =
      (json_file name (replace_field key (num v) json), None)
    in
    let live = json_of "rrfd-live-grid" in
    [
      ( json_file "byz-seed"
          (replace_field "seed" (Report.Json.String "abc") byz),
        None );
      out_of_range "byz-n" "n" (-1) byz;
      out_of_range "byz-f" "f" 4 byz;
      out_of_range "derive-n" "n" 0 derive;
      out_of_range "derive-rounds" "rounds" 0 derive;
      out_of_range "ce-n" "n" 0 (json_of "rrfd-counterexample");
      ( json_file "live-f"
          (replace_field "records"
             (Report.Json.List
                (List.map (replace_field "f" (num 99))
                   (Report.Json.list (Report.Json.member "records" live))))
             live),
        None );
    ]
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (path, _) -> try Sys.remove path with Sys_error _ -> ())
        inputs;
      Sys.rmdir dir)
    (fun () ->
      List.iter
        (fun (kind, _, _, load) ->
          List.iter
            (fun (path, valid_for) ->
              match load path with
              | Ok () when valid_for = Some kind -> ()
              | Ok () -> Alcotest.failf "%s loader accepted %s" kind path
              | Error _ when valid_for <> Some kind -> ()
              | Error e ->
                Alcotest.failf "%s loader refused its own kind: %s" kind e
              | exception e ->
                Alcotest.failf "%s loader raised %s on %s" kind
                  (Printexc.to_string e) path)
            inputs)
        codecs)

let tests =
  [
    Alcotest.test_case "patience specs" `Quick patience_specs;
    Alcotest.test_case "mailbox basics" `Quick mailbox_basics;
    Alcotest.test_case "mailbox cross-domain" `Quick mailbox_cross_domain;
    QCheck_alcotest.to_alcotest histories_well_formed;
    Alcotest.test_case "execution record invariants" `Quick execution_record;
    Alcotest.test_case "failure modes" `Quick failure_modes;
    Alcotest.test_case "differential stress (207 live runs)" `Slow
      differential_stress;
    Alcotest.test_case "record artifact roundtrip" `Quick record_roundtrip;
    Alcotest.test_case "effective-jobs guard" `Quick effective_jobs_guard;
    Alcotest.test_case "E23 artifact codec" `Quick e23_codec;
    Alcotest.test_case "artifact loaders refuse hostile input" `Quick
      hostile_artifacts;
  ]
