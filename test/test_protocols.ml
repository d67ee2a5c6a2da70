(* The protocol catalog and its derivations: every entry round-trips
   through the model checker's SUT layer (names, horizons, properties and
   one clean fuzz run each), and the heard-of extraction honours its
   contract — completed prefixes survive [to_history] exactly and the
   induced history never self-suspects. *)

module Catalog = Protocols.Catalog
module H = Rrfd.Fault_history
module Pset = Rrfd.Pset

let ok_spec = function
  | Ok v -> v
  | Error e -> Alcotest.fail e

let catalog_well_formed () =
  let names = Catalog.names in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun proto ->
      let name = Catalog.name proto in
      (match Catalog.find name with
      | Some found ->
        Alcotest.(check string) (name ^ " find round-trip") name
          (Catalog.name found)
      | None -> Alcotest.failf "%s not found by its own name" name);
      let n = Catalog.default_n proto in
      let f = Catalog.default_f proto ~n in
      Alcotest.(check bool)
        (name ^ " horizon positive")
        true
        (Catalog.horizon proto ~n ~f >= 1);
      Alcotest.(check bool)
        (name ^ " resilience sane")
        true
        (f >= 0 && f < n))
    Catalog.all;
  Alcotest.(check bool) "unknown name" true (Catalog.find "no-such" = None)

(* Every catalog entry is reachable through the checker's spec grammar and
   derives a SUT whose name and horizon agree with the catalog's. *)
let sut_derivation () =
  List.iter
    (fun proto ->
      let name = Catalog.name proto in
      let sut = ok_spec (Check.Spec.sut name) in
      Alcotest.(check string) (name ^ " SUT name") name (Catalog.name sut);
      let n = Catalog.default_n proto in
      let f = Catalog.default_f proto ~n in
      Alcotest.(check int)
        (name ^ " SUT rounds = catalog horizon")
        (Catalog.horizon proto ~n ~f)
        (Check.Sut.rounds sut);
      let props = Check.Spec.default_properties sut in
      Alcotest.(check bool) (name ^ " has default properties") true
        (props <> []);
      List.iter (fun p -> ignore (ok_spec (Check.Spec.property p))) props)
    Catalog.all

(* Catalog invariants: names are unique, every entry declares its fault
   models from the known vocabulary, Byzantine capability is an explicit
   declaration (not a default), and every entry actually executes one
   tiny-n round on every substrate that supports it. *)
let catalog_invariants () =
  let names = Catalog.names in
  Alcotest.(check int)
    "catalog names are unique"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun proto ->
      let name = Catalog.name proto in
      let faults = Catalog.faults proto in
      Alcotest.(check bool)
        (name ^ ": declares at least one fault model")
        true (faults <> []);
      List.iter
        (fun fm ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %S is known vocabulary" name fm)
            true
            (List.mem fm Catalog.known_faults))
        faults;
      Alcotest.(check int)
        (name ^ ": fault models are not repeated")
        (List.length faults)
        (List.length (List.sort_uniq compare faults)))
    Catalog.all;
  (* Byzantine capability is opt-in and byz-vote opts in: it is the
     accountability construction's protocol, built to survive lying
     members. *)
  let byz_capable =
    List.filter
      (fun p -> List.mem "byzantine" (Catalog.faults p))
      Catalog.all
  in
  Alcotest.(check (list string))
    "exactly the Byzantine-capable entries" [ "byz-vote" ]
    (List.map Catalog.name byz_capable);
  Alcotest.(check bool)
    "byz-vote still handles crashes" true
    (List.mem "crash" (Catalog.faults (Catalog.find_exn "byz-vote")));
  (* One round per substrate per entry, at the entry's own tiny default
     size.  The execution record must be structurally sane everywhere, and
     the one differential must reproduce it — and name the first process
     whose recorded decision is tampered with. *)
  List.iter
    (fun proto ->
      let name = Catalog.name proto in
      let n = Catalog.default_n proto in
      let f = Catalog.default_f proto ~n in
      let quiet =
        Rrfd.Detector.of_schedule ~after:(Array.make n Rrfd.Pset.empty) []
      in
      let sane label (ex : int Rrfd.Substrate.execution) =
        Alcotest.(check int)
          (Printf.sprintf "%s/%s: one decision slot per process" name label)
          n
          (Array.length ex.Rrfd.Substrate.decisions);
        Alcotest.(check bool)
          (Printf.sprintf "%s/%s: induced history sized to the run" name label)
          true
          (Rrfd.Fault_history.n ex.Rrfd.Substrate.induced = n
          && Rrfd.Fault_history.rounds ex.Rrfd.Substrate.induced
             = ex.Rrfd.Substrate.rounds_used);
        let divergence ex = (Catalog.differential proto ~f ex).divergence in
        Alcotest.(check (option int))
          (Printf.sprintf "%s/%s: pinned replay reproduces the run" name label)
          None (divergence ex);
        let tampered = Array.copy ex.decisions in
        tampered.(0) <- (if tampered.(0) = Some (-1) then None else Some (-1));
        Alcotest.(check (option int))
          (Printf.sprintf "%s/%s: a tampered decision is the divergence" name
             label)
          (Some 0)
          (divergence { ex with decisions = tampered })
      in
      sane "engine"
        (Catalog.run_engine proto ~max_rounds:1 ~n ~f ~detector:quiet ());
      sane "sync"
        (Catalog.run_sync proto ~rounds:1 ~n ~f
           ~pattern:(Syncnet.Faults.none ~n) ());
      sane "msgnet"
        (Catalog.run_msgnet proto ~rounds:1 ~seed:3 ~n ~f ());
      sane "live" (Catalog.run_live proto ~rounds:1 ~n ~f ()))
    Catalog.all

(* One fuzz run per protocol: under a predicate the protocol is safe for,
   a short Monte-Carlo search must come back clean.  Safety-only for the
   protocols whose liveness needs more than the fuzzed horizon. *)
let fuzz_each_protocol () =
  let safe_configs =
    [
      ("kset-one-round", "kset:k=2", [ "k-agreement:k=2"; "termination" ]);
      ("consensus", "kset:k=1", [ "agreement"; "validity"; "termination" ]);
      ("kset-snapshot", "kset:k=2", [ "k-agreement:k=2"; "termination" ]);
      ("adopt-commit", "true", [ "adopt-commit" ]);
      ("phased-consensus", "true", [ "agreement"; "validity" ]);
      ("early-deciding", "crash:f=1", [ "agreement"; "validity" ]);
      ("flood-consensus", "crash:f=1", [ "agreement"; "validity" ]);
      ("byz-vote", "true", [ "agreement"; "validity" ]);
    ]
  in
  Alcotest.(check (list string))
    "every protocol has a fuzz configuration" (Catalog.names)
    (List.map (fun (name, _, _) -> name) safe_configs);
  List.iter
    (fun (name, predicate, properties) ->
      let sut = Catalog.find_exn name in
      let config : Check.Checker.fuzz_config =
        {
          n = Catalog.default_n sut;
          rounds = Check.Sut.rounds sut;
          trials = 40;
          seed = 11;
          jobs = Some 1;
          attempts = 64;
        }
      in
      match
        Check.Checker.fuzz config ~sut
          ~predicate:(ok_spec (Check.Spec.predicate predicate))
          ~properties:
            (List.map (fun p -> ok_spec (Check.Spec.property p)) properties)
          ()
      with
      | None -> ()
      | Some ce ->
        Alcotest.failf "%s violated under %s: %s" name predicate
          (H.to_string_compact ce.Check.Checker.history))
    safe_configs

(* Heard-of extraction on arbitrary well-formed records: [to_history]
   reproduces every noted round exactly (D(i,r) = complement of the heard
   set), pads unreached rounds with ∅, reports the right completed counts,
   and — since a process always hears itself — never self-suspects. *)
let heard_of_roundtrip =
  QCheck.Test.make
    ~name:"heard-of extraction preserves the completed prefix"
    ~count:200
    (Test_support.sized_seed ~min_n:2 ~max_n:7 ())
    (fun (n, seed) ->
      let rng = Test_support.rng_of seed in
      let max_rounds = 4 in
      let ho = Msgnet.Heard_of.create ~n in
      let completed =
        Array.init n (fun _ -> Dsim.Rng.int rng (max_rounds + 1))
      in
      let heards = Array.make_matrix n max_rounds Pset.empty in
      for i = 0 to n - 1 do
        for round = 1 to completed.(i) do
          let heard = Pset.add i (Pset.random_subset rng (Pset.full n)) in
          heards.(i).(round - 1) <- heard;
          Msgnet.Heard_of.note ho i ~round ~heard ()
        done
      done;
      let hist = Msgnet.Heard_of.to_history ho in
      let horizon = Array.fold_left max 0 completed in
      if H.rounds hist <> horizon then
        QCheck.Test.fail_reportf "history has %d rounds, expected %d"
          (H.rounds hist) horizon;
      if Msgnet.Heard_of.rounds ho <> horizon then
        QCheck.Test.fail_reportf "record reports %d rounds, expected %d"
          (Msgnet.Heard_of.rounds ho) horizon;
      for i = 0 to n - 1 do
        if Msgnet.Heard_of.completed ho i <> completed.(i) then
          QCheck.Test.fail_reportf "p%d completed %d, recorded %d" i
            completed.(i)
            (Msgnet.Heard_of.completed ho i);
        for round = 1 to horizon do
          let d = H.d hist ~proc:i ~round in
          let expected =
            if round <= completed.(i) then
              Pset.diff (Pset.full n) heards.(i).(round - 1)
            else Pset.empty
          in
          if not (Pset.equal d expected) then
            QCheck.Test.fail_reportf
              "p%d round %d: D = %s, expected %s" i round (Pset.to_string d)
              (Pset.to_string expected);
          if Pset.mem i d then
            QCheck.Test.fail_reportf "p%d ∈ D(p%d,%d)" i i round
        done
      done;
      true)

(* The comparability rule reads how far each process got, not whether it
   crashed: a process that completed every induced round is checked even
   if it crashed afterwards (the asynchronous layer drains every scheduled
   crash), and one that stopped earlier is not. *)
let crash_comparability () =
  let proto = Catalog.find_exn "flood-consensus" in
  let n = 5 and f = 2 in
  let divergence ex = (Catalog.differential proto ~f ex).divergence in
  let tampered i (ex : int Rrfd.Substrate.execution) =
    let d = Array.copy ex.decisions in
    d.(i) <- (if d.(i) = Some (-1) then None else Some (-1));
    divergence { ex with decisions = d }
  in
  let ex =
    Catalog.run_msgnet proto ~crashes:[ (1, 1000.0) ] ~seed:5 ~n ~f ()
  in
  Alcotest.(check bool) "msgnet: p1 crashed" true (Pset.mem 1 ex.crashed);
  Alcotest.(check int) "msgnet: p1 completed every round" (H.rounds ex.induced)
    ex.completed.(1);
  Alcotest.(check (option int)) "msgnet: replay reproduces" None (divergence ex);
  Alcotest.(check (option int)) "msgnet: p1's tampered decision is reported"
    (Some 1) (tampered 1 ex);
  let rounds = Catalog.horizon proto ~n ~f in
  let pattern =
    Syncnet.Faults.crash ~n [ (2, 1, Pset.empty); (3, rounds, Pset.empty) ]
  in
  let ex =
    Catalog.run_sync proto ~stop_when_decided:false ~rounds ~n ~f ~pattern ()
  in
  Alcotest.(check (array int)) "sync: a crashed process completed its crash round"
    [| rounds; rounds; 1; rounds; rounds |] ex.completed;
  Alcotest.(check (option int)) "sync: replay reproduces" None (divergence ex);
  Alcotest.(check (option int)) "sync: p2 stopped early and is not compared"
    None (tampered 2 ex);
  Alcotest.(check (option int)) "sync: p3 finished its last round and is compared"
    (Some 3) (tampered 3 ex)

let tests =
  [
    Alcotest.test_case "catalog well-formed" `Quick catalog_well_formed;
    Alcotest.test_case "catalog invariants: names, fault models, substrates"
      `Slow catalog_invariants;
    Alcotest.test_case "differential compares processes that crashed after finishing"
      `Quick crash_comparability;
    Alcotest.test_case "SUT derivation agrees with catalog" `Quick
      sut_derivation;
    Alcotest.test_case "one clean fuzz run per protocol" `Slow
      fuzz_each_protocol;
    QCheck_alcotest.to_alcotest heard_of_roundtrip;
  ]
