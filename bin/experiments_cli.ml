(* Command-line runner for the paper's experiments (E1-E26).

   `rrfd-experiments list`            enumerate experiments
   `rrfd-experiments run E6 E9`       run selected experiments
   `rrfd-experiments all`             run everything
   `rrfd-experiments lattice A B`     submodel relation between predicates
   `rrfd-experiments trace`           round-by-round transcript of a protocol
   `rrfd-experiments check`           schedule-space model checker (fuzz,
                                      shrink, save/replay counterexamples)
   `rrfd-experiments faultnet`        fault-injection + heard-of replay (E21)
   `rrfd-experiments xsub`            cross-substrate differential matrix (E22)
   `rrfd-experiments live`            real domains + live heard-of replay (E23)
   `rrfd-experiments scale`           large-n grid / throughput timing (E25)
   `rrfd-experiments byz`             Byzantine fork accountability (E24)
   `rrfd-experiments derive`          derive+certify heard-of predicates (E26)
   options: --seed, --trials, -j/--jobs

   Every subcommand exits 2 with one line on stderr when an input — a spec
   string or an artifact to replay — is unusable. *)

(* The raw OS monotonic clock, for the scale throughput measurements. *)
module Mclock = Monotonic_clock

open Cmdliner

let setup_logs () =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ())

let seed_arg =
  let doc = "Random seed; every experiment is reproducible from it." in
  Arg.(value & opt int Experiments.Registry.default_seed & info [ "seed" ] ~doc)

let trials_arg =
  let doc = "Override the per-configuration trial count." in
  Arg.(value & opt (some int) None & info [ "trials" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for Monte-Carlo campaigns (default: all cores).  \
     Tables are bit-identical for every value: trial RNGs derive from \
     (seed, trial index), so -j only changes wall-clock time."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~doc)

(* The one failure path for unusable input: unknown specs, and artifacts
   that are missing, malformed, or of another kind or version. *)
let or_die = function
  | Ok v -> v
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    exit 2

(* Options the subcommands share; each passes its own default and doc. *)
let opt_arg name typ default doc =
  Arg.(value & opt typ default & info [ name ] ~doc)

let f_minority_arg =
  opt_arg "f" Arg.(some int) None "Resilience (default: a minority, (n-1)/2)."

let minority ~n = function Some f -> f | None -> (n - 1) / 2

let grid_arg doc = Arg.(value & flag & info [ "grid" ] ~doc)

let file_arg name doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)

(* Every --grid mode: print the table, write the artifact when --json
   names a file ("auto" becomes <prefix>_<git-sha>.json), exit 1 iff the
   table failed. *)
let run_grid ~prefix ~what ~json (table, artifact) =
  Experiments.Table.print table;
  Option.iter
    (fun path ->
      let path = Report.artifact_path ~prefix path in
      Report.save ~pretty:false path artifact;
      Printf.printf "%s artifact written to %s\n" what path)
    json;
  if Experiments.Table.ok table then 0 else 1

(* A grid whose artifact is its table plus the experiment's own detail. *)
let table_grid ~seed detail_json (table, detail) =
  (table, Experiments.Table.to_json ~seed table ~detail:(detail_json detail))

let list_cmd =
  let run () =
    setup_logs ();
    List.iter
      (fun e ->
        Printf.printf "%-4s %s\n" e.Experiments.Registry.id
          e.Experiments.Registry.title)
      Experiments.Registry.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the experiments and what they reproduce.")
    Term.(const run $ const ())

let run_tables tables =
  List.iter Experiments.Table.print tables;
  let failed =
    List.filter (fun t -> not (Experiments.Table.ok t)) tables
  in
  if failed = [] then begin
    Printf.printf "\nAll %d experiment table(s) match the paper's claims.\n"
      (List.length tables);
    0
  end
  else begin
    Printf.printf "\n%d experiment table(s) FAILED: %s\n" (List.length failed)
      (String.concat ", " (List.map (fun t -> t.Experiments.Table.id) failed));
    1
  end

let run_cmd =
  let ids_arg =
    let doc = "Experiment ids to run (e.g. E6 e9)." in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let run seed trials jobs ids =
    setup_logs ();
    let entries =
      List.map
        (fun id ->
          match Experiments.Registry.find id with
          | Some e -> e
          | None ->
            Printf.eprintf "unknown experiment %S (try `list`)\n" id;
            exit 2)
        ids
    in
    run_tables
      (List.map
         (fun e -> e.Experiments.Registry.run ~seed ~trials ~jobs)
         entries)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run selected experiments.")
    Term.(const run $ seed_arg $ trials_arg $ jobs_arg $ ids_arg)

let all_cmd =
  let run seed trials jobs =
    setup_logs ();
    run_tables
      (List.map
         (fun e -> e.Experiments.Registry.run ~seed ~trials ~jobs)
         Experiments.Registry.all)
  in
  Cmd.v (Cmd.info "all" ~doc:"Run every experiment (E1-E26).")
    Term.(const run $ seed_arg $ trials_arg $ jobs_arg)

(* `lattice` — print the submodel relation between two named predicates at
   a configurable (small) system size. *)
let lattice_cmd =
  let predicate_of_name ~f name =
    match String.lowercase_ascii name with
    | "crash" -> Some (Rrfd.Predicate.crash ~f)
    | "omission" -> Some (Rrfd.Predicate.omission ~f)
    | "async" -> Some (Rrfd.Predicate.async_resilient ~f)
    | "shm" -> Some (Rrfd.Predicate.shared_memory ~f)
    | "snapshot" -> Some (Rrfd.Predicate.snapshot ~f)
    | "kset" -> Some (Rrfd.Predicate.k_set ~k:(f + 1))
    | "eq5" -> Some Rrfd.Predicate.identical_views
    | "dets" | "detector-s" -> Some Rrfd.Predicate.detector_s
    | _ -> None
  in
  let names = "crash, omission, async, shm, snapshot, kset, eq5, detector-s" in
  let a_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"LEFT" ~doc:names)
  in
  let b_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"RIGHT" ~doc:names)
  in
  let n_arg = opt_arg "n" Arg.int 3 "System size (keep ≤ 4)." in
  let f_arg = opt_arg "f" Arg.int 1 "Resilience parameter." in
  let rounds_arg = opt_arg "rounds" Arg.int 2 "History length (keep ≤ 2)." in
  let run a b n f rounds =
    setup_logs ();
    match (predicate_of_name ~f a, predicate_of_name ~f b) with
    | Some pa, Some pb -> (
      match Rrfd.Submodel.check_exhaustive ~n ~rounds pa pb with
      | Rrfd.Submodel.Implies ->
        Printf.printf "%s ⇒ %s over every ≤%d-round %d-process history\n"
          (Rrfd.Predicate.name pa) (Rrfd.Predicate.name pb) rounds n;
        0
      | Rrfd.Submodel.Counterexample h ->
        Printf.printf "%s ⇏ %s; counterexample:\n  %s\n"
          (Rrfd.Predicate.name pa) (Rrfd.Predicate.name pb)
          (Rrfd.Fault_history.to_string_compact h);
        0)
    | None, _ | _, None ->
      Printf.eprintf "unknown predicate name, expected one of: %s\n" names;
      2
  in
  Cmd.v
    (Cmd.info "lattice"
       ~doc:"Check a submodel relation (Sec. 2) exhaustively at a small size.")
    Term.(const run $ a_arg $ b_arg $ n_arg $ f_arg $ rounds_arg)

(* `trace` — run any catalog protocol under a chosen model and print the
   full transcript.  Protocol names, printers and horizons all come from
   the catalog; nothing here is per-protocol. *)
let trace_cmd =
  let protocol_arg =
    let doc =
      "Catalog protocol to trace: "
      ^ String.concat ", " Protocols.Catalog.names
      ^ "."
    in
    Arg.(
      value
      & opt string "kset-one-round"
      & info [ "protocol" ] ~docv:"NAME" ~doc)
  in
  let n_arg =
    opt_arg "n" Arg.(some int) None
      "System size (default: 6 for k-set protocols, the catalog default \
       otherwise)."
  in
  let k_arg =
    Arg.(
      value & opt int 2
      & info [ "k" ] ~doc:"Agreement bound (k-set protocols only).")
  in
  let run seed protocol n k =
    setup_logs ();
    match Protocols.Catalog.find protocol with
    | None ->
      Printf.eprintf "unknown protocol %s, expected one of: %s\n" protocol
        (String.concat ", " Protocols.Catalog.names);
      2
    | Some proto ->
      let is_kset = String.length protocol >= 4 && String.sub protocol 0 4 = "kset" in
      let n =
        match n with
        | Some n -> n
        | None -> if is_kset then 6 else Protocols.Catalog.default_n proto
      in
      let f =
        if is_kset then k - 1 else Protocols.Catalog.default_f proto ~n
      in
      let inputs = Tasks.Inputs.distinct n in
      let detector rng =
        if is_kset then Rrfd.Detector_gen.k_set rng ~n ~k
        else Rrfd.Detector_gen.crash rng ~n ~f
      in
      let check = if is_kset then Some (Rrfd.Predicate.k_set ~k) else None in
      let max_rounds = max 1 (Protocols.Catalog.horizon proto ~n ~f) in
      (* Two identically-seeded RNGs: one consumed by the rendered
         transcript, one by the execution we report decisions from. *)
      print_endline
        (Protocols.Catalog.transcript proto ~inputs ?check ~n ~f ~max_rounds
           ~detector:(detector (Dsim.Rng.create seed))
           ());
      let ex =
        Protocols.Catalog.run_engine proto ~inputs ?check ~max_rounds ~n ~f
          ~detector:(detector (Dsim.Rng.create seed))
          ()
      in
      Printf.printf "history: %s\n"
        (Rrfd.Fault_history.to_string_compact ex.Rrfd.Substrate.induced);
      if is_kset then (
        match
          Tasks.Agreement.check ~k ~inputs ex.Rrfd.Substrate.decisions
        with
        | None ->
          Printf.printf "%d-set agreement: OK\n" k;
          0
        | Some reason ->
          Printf.printf "%d-set agreement VIOLATED: %s\n" k reason;
          1)
      else begin
        Format.printf "decisions: @[<h>%a@]@."
          (Format.pp_print_array
             ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " ")
             (fun fmt d ->
               match d with
               | None -> Format.pp_print_string fmt "-"
               | Some v -> Protocols.Catalog.pp_out proto fmt v))
          ex.Rrfd.Substrate.decisions;
        0
      end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a catalog protocol on the abstract engine and print the full \
          round-by-round transcript.")
    Term.(const run $ seed_arg $ protocol_arg $ n_arg $ k_arg)

(* `check` — the schedule-space model checker: fuzz (or exhaustively
   enumerate) predicate-satisfying fault histories hunting for one that
   makes a system violate a safety property, shrink it, persist it as a
   JSON artifact, and replay such artifacts deterministically. *)
let check_cmd =
  let sut_arg =
    let doc = "System under test: " ^ Check.Spec.sut_names ^ "." in
    Arg.(value & opt string "kset-one-round" & info [ "sut" ] ~docv:"SUT" ~doc)
  in
  let predicate_arg =
    let doc =
      "RRFD predicate the histories must satisfy (the model under test): "
      ^ Check.Spec.predicate_names
      ^ ".  Weaken it deliberately (e.g. kset:k=3 against k-agreement:k=2) \
         to watch the checker refute the theorem's converse."
    in
    Arg.(
      value & opt (some string) None & info [ "predicate" ] ~docv:"PRED" ~doc)
  in
  let generator_arg =
    let doc =
      "Constructive sampling: draw histories from this detector generator \
       instead of rejection sampling ("
      ^ Check.Spec.generator_names ^ ")."
    in
    Arg.(value & opt (some string) None & info [ "generator" ] ~docv:"GEN" ~doc)
  in
  let property_arg =
    let doc =
      "Safety property to check (repeatable): " ^ Check.Spec.property_names
      ^ ".  Default: the SUT's own specification."
    in
    Arg.(value & opt_all string [] & info [ "property" ] ~docv:"PROP" ~doc)
  in
  let n_arg = opt_arg "n" Arg.int 4 "System size." in
  let rounds_arg =
    opt_arg "rounds" Arg.(some int) None
      "History length to explore (default: what the SUT needs)."
  in
  let trials_arg =
    Arg.(value & opt int 1000 & info [ "trials" ] ~doc:"Fuzzing trials.")
  in
  let attempts_arg =
    let doc = "Per-round rejection budget when sampling histories." in
    Arg.(value & opt int 64 & info [ "attempts" ] ~doc)
  in
  let exhaustive_arg =
    let doc =
      "Enumerate every history of the given size instead of fuzzing (keep \
       n ≤ 4, rounds ≤ 2)."
    in
    Arg.(value & flag & info [ "exhaustive" ] ~doc)
  in
  let save_arg =
    file_arg "save" "Write the counterexample artifact (JSON) to $(docv)."
  in
  let expect_arg =
    let doc =
      "Invert the exit status: succeed iff a violation was found (CI smoke \
       checks that seeded violations stay findable)."
    in
    Arg.(value & flag & info [ "expect-violation" ] ~doc)
  in
  let replay_arg =
    file_arg "replay"
      "Replay the counterexample artifact at $(docv): re-execute its \
       history and verify the recorded decision vector bit-for-bit."
  in
  let trace_flag =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the full transcript.")
  in
  let pp_decisions pp_out ppf decisions =
    Array.iteri
      (fun i d ->
        if i > 0 then Format.fprintf ppf " ";
        match d with
        | None -> Format.fprintf ppf "p%d→⊥" i
        | Some v -> Format.fprintf ppf "p%d→%a" i pp_out v)
      decisions
  in
  let print_counterexample ~sut ce =
    let open Check.Checker in
    Printf.printf "COUNTEREXAMPLE refuting %s under %s\n" ce.sut ce.property;
    (match ce.trial with
    | -1 -> Printf.printf "  found by exhaustive enumeration"
    | t -> Printf.printf "  found at trial %d" t);
    Printf.printf ", shrunk in %d step(s) to:\n" ce.shrink_steps;
    Format.printf "  @[<v>%a@]@." Rrfd.Fault_history.pp ce.history;
    Printf.printf "  compact: %s\n"
      (Rrfd.Fault_history.to_string_compact ce.history);
    Format.printf "  decisions: %a@."
      (pp_decisions (Protocols.Catalog.pp_out sut))
      ce.decisions;
    Printf.printf "  failure: %s\n" ce.failure
  in
  let do_replay path with_trace =
    let artifact = or_die (Check.Artifact.load path) in
    let ce = artifact.Check.Artifact.counterexample in
    Printf.printf
      "replaying %s: sut %s, predicate %s, property %s (seed %d, trial %d)\n"
      path artifact.Check.Artifact.sut artifact.Check.Artifact.predicate
      ce.Check.Checker.property artifact.Check.Artifact.seed
      ce.Check.Checker.trial;
    Printf.printf "  history: %s\n"
      (Rrfd.Fault_history.to_string_compact ce.Check.Checker.history);
    let replay = or_die (Check.Artifact.replay artifact) in
    let sut = or_die (Check.Spec.sut artifact.Check.Artifact.sut) in
    if with_trace then
      Printf.printf "%s\n" replay.Check.Artifact.transcript;
    Format.printf "  decisions: %a@."
      (pp_decisions (Protocols.Catalog.pp_out sut))
      replay.Check.Artifact.obs.Check.Property.decisions;
    (match replay.Check.Artifact.failure with
    | Some (prop, msg) -> Printf.printf "  failure: %s: %s\n" prop msg
    | None when replay.Check.Artifact.failure_expected ->
      Printf.printf "  failure: none (property holds on replay!)\n"
    | None -> Printf.printf "  failure: none (clean recording, as expected)\n");
    if Check.Artifact.reproduced replay then begin
      Printf.printf "replay REPRODUCED the recorded decision vector exactly.\n";
      0
    end
    else begin
      Printf.printf
        "replay DIVERGED from the recording (decisions %s, failure %s, \
         expected %s).\n"
        (if replay.Check.Artifact.decisions_match then "match" else "differ")
        (if replay.Check.Artifact.failure = None then "absent" else "present")
        (if replay.Check.Artifact.failure_expected then "present" else "absent");
      1
    end
  in
  let run seed trials jobs sut_spec predicate_spec generator_spec
      property_specs n rounds attempts exhaustive save expect replay
      with_trace =
    setup_logs ();
    match replay with
    | Some path -> do_replay path with_trace
    | None ->
      let sut = or_die (Check.Spec.sut sut_spec) in
      let generator =
        Option.map
          (fun spec -> (spec, or_die (Check.Spec.generator spec)))
          generator_spec
      in
      let predicate_spec, predicate =
        match (predicate_spec, generator) with
        | Some spec, _ -> (spec, or_die (Check.Spec.predicate spec))
        | None, Some (spec, (_, paired)) -> (spec, paired)
        | None, None -> ("kset:k=2", or_die (Check.Spec.predicate "kset:k=2"))
      in
      let property_specs =
        match property_specs with
        | [] -> Check.Spec.default_properties sut
        | specs -> specs
      in
      let properties =
        List.map (fun s -> or_die (Check.Spec.property s)) property_specs
      in
      let rounds =
        match rounds with Some r -> r | None -> Check.Sut.rounds sut
      in
      let found =
        if exhaustive then
          Check.Checker.exhaustive ?jobs ~n ~rounds ~sut ~predicate
            ~properties ()
        else
          Check.Checker.fuzz
            { Check.Checker.n; rounds; trials; seed; jobs; attempts }
            ~sut ~predicate
            ?generator:(Option.map (fun (_, (gen, _)) -> gen) generator)
            ~properties ()
      in
      (match found with
      | None ->
        if exhaustive then
          Printf.printf
            "no counterexample: every %d-round %d-process history satisfying \
             %s keeps %s safe.\n"
            rounds n
            (Rrfd.Predicate.name predicate)
            (String.concat " ∧ " property_specs)
        else
          Printf.printf "no counterexample in %d trial(s) (seed %d).\n" trials
            seed
      | Some ce ->
        print_counterexample ~sut ce;
        if with_trace then
          Printf.printf "%s\n"
            (Check.Sut.transcript sut ~check:predicate
               ce.Check.Checker.history);
        Option.iter
          (fun path ->
            Check.Artifact.save path
              (Check.Artifact.make ~sut_spec ~predicate_spec
                 ~property_specs ~seed ce);
            Printf.printf "artifact saved to %s\n" path)
          save);
      let violated = found <> None in
      if violated = expect then 0 else 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Model-check a protocol over the schedule space of an RRFD \
          predicate: fuzz or exhaustively enumerate fault histories, shrink \
          any property violation to a minimal history, and save/replay it \
          as a JSON artifact.")
    Term.(
      const run $ seed_arg $ trials_arg $ jobs_arg $ sut_arg $ predicate_arg
      $ generator_arg $ property_arg $ n_arg $ rounds_arg $ attempts_arg
      $ exhaustive_arg $ save_arg $ expect_arg $ replay_arg $ trace_flag)

(* `faultnet` — drive the fault-injection network layer: run one adversary
   spec through the round layer and the heard-of differential oracle, or
   reproduce the full E21 grid, optionally writing a deterministic JSON
   artifact (the -j smoke gate compares those byte-for-byte). *)
let faultnet_cmd =
  let adversary_arg =
    let doc =
      "Adversary policy, atoms joined with '+': " ^ Check.Spec.adversary_names
      ^ ".  Probabilities are percentages, e.g. \
         drop:p=20+dup:p=10,copies=2."
    in
    Arg.(
      value & opt string "drop:p=20" & info [ "adversary" ] ~docv:"SPEC" ~doc)
  in
  let n_arg = opt_arg "n" Arg.int 5 "System size." in
  let rounds_arg = opt_arg "rounds" Arg.int 4 "Simulated rounds." in
  let grid_arg =
    grid_arg
      "Run the full E21 adversary grid instead of a single spec \
       (--adversary/-n/--f/--rounds are ignored)."
  in
  let json_arg =
    file_arg "json"
      "With $(b,--grid): also write the table and every trial's extracted \
       history to $(docv) as compact JSON ($(b,auto) names the file \
       FAULTNET_<git-sha>.json).  The output depends only on --seed and \
       --trials — never on -j — which is what the faultnet smoke gate \
       compares."
  in
  let run_single ~seed ~spec ~n ~f ~rounds =
    let adversary = or_die (Check.Spec.adversary spec) in
    let algorithm =
      Rrfd.Full_info.algorithm ~inputs:(Tasks.Inputs.distinct n)
    in
    let o =
      Msgnet.Round_layer.run ~seed ~adversary ~n ~f ~rounds ~algorithm ()
    in
    let ex = o.execution in
    let d =
      Rrfd.Engine.differential ~equal:Rrfd.Full_info.equal ~algorithm ex
    in
    Printf.printf "faultnet: %s over n=%d f=%d rounds=%d (seed %d)\n" spec n f
      rounds seed;
    Printf.printf "  messages: sent=%d delivered=%d dropped=%d duplicated=%d\n"
      o.messages_sent ex.counters.messages o.messages_dropped
      o.messages_duplicated;
    Printf.printf "  completed rounds: %s  (virtual time %.1f)\n"
      (String.concat " " (Array.to_list (Array.map string_of_int ex.completed)))
      o.virtual_time;
    let induced = ex.induced in
    Format.printf "  induced history:@;<1 4>@[<v>%a@]@." Rrfd.Fault_history.pp
      induced;
    Printf.printf "  compact: %s\n"
      (Rrfd.Fault_history.to_string_compact induced);
    let held = Msgnet.Heard_of.classify ~f induced in
    Printf.printf "  predicates (f=%d): %s\n" f
      (String.concat "  "
         (List.map
            (fun (p, b) -> Printf.sprintf "%s=%s" p (if b then "yes" else "no"))
            held));
    let p3 = List.assoc "P3" held in
    (match d.divergence with
    | None ->
      Printf.printf "  replay: engine decisions match the network's%s.\n"
        (if Array.for_all (fun c -> c = rounds) ex.completed then ""
         else " over the completed prefix")
    | Some i ->
      Printf.printf "  replay: DIVERGED from the abstract engine at p%d.\n" i);
    if not p3 then
      Printf.printf
        "  P3 VIOLATED: some D(i,r) exceeds f — the round layer's guarantee \
         broke.\n";
    if d.divergence = None && p3 then 0 else 1
  in
  let run seed trials jobs spec n f rounds grid json =
    setup_logs ();
    if grid then
      run_grid ~prefix:"FAULTNET" ~what:"grid" ~json
        (table_grid ~seed Experiments.E21_faultnet.detail_json
           (Experiments.E21_faultnet.run_detailed ~seed ?trials ?jobs ()))
    else run_single ~seed ~spec ~n ~f:(minority ~n f) ~rounds
  in
  Cmd.v
    (Cmd.info "faultnet"
       ~doc:
         "Damage the asynchronous network with a fault-injection adversary, \
          extract the induced heard-of fault history, classify it against \
          the paper's predicate ladder and differentially replay it on the \
          abstract engine — for one spec, or the whole E21 grid.")
    Term.(
      const run $ seed_arg $ trials_arg $ jobs_arg $ adversary_arg $ n_arg
      $ f_minority_arg $ rounds_arg $ grid_arg $ json_arg)

(* `xsub` — the E22 cross-substrate differential matrix: every catalog
   protocol over every execution substrate under equivalent fault
   policies, each induced history replayed pinned on the abstract engine.
   The --json artifact embeds every trial's induced and replayed compact
   histories; it depends only on --seed and --trials, never on -j, which
   is what the xsub smoke gate compares byte-for-byte. *)
let xsub_cmd =
  let json_arg =
    file_arg "json"
      "Also write the table and every trial's per-substrate induced and \
       replayed histories to $(docv) as compact JSON ($(b,auto) names the \
       file XSUB_<git-sha>.json).  The output depends only on --seed and \
       --trials — never on -j."
  in
  let run seed trials jobs json =
    setup_logs ();
    run_grid ~prefix:"XSUB" ~what:"matrix" ~json
      (table_grid ~seed Experiments.E22_xsub.detail_json
         (Experiments.E22_xsub.run_detailed ~seed ?trials ?jobs ()))
  in
  Cmd.v
    (Cmd.info "xsub"
       ~doc:
         "Run the E22 cross-substrate differential matrix: every catalog \
          protocol over the abstract engine, the synchronous network and \
          the asynchronous network under equivalent fault policies, with \
          every induced fault history replayed pinned on the abstract \
          engine and checked for bit-for-bit decision and P1-P5 agreement.")
    Term.(const run $ seed_arg $ trials_arg $ jobs_arg $ json_arg)

(* `live` — the real-concurrency substrate: run a protocol with one OCaml
   domain per process, extract the heard-of history the scheduler induced,
   classify it and validate the pinned engine replay against the live
   decisions.  Modes: one narrated run (default), a --stress campaign of
   differential runs, --record to persist the run as a check-replayable
   artifact, and the E23 --grid whose --json artifact regenerates
   deterministically from recorded histories (--from). *)
let live_cmd =
  let protocol_arg =
    let doc =
      "Protocol to run (see `rrfd-experiments check --help` for the \
       catalog names)."
    in
    Arg.(
      value
      & opt string "flood-consensus"
      & info [ "protocol" ] ~docv:"NAME" ~doc)
  in
  let n_arg = opt_arg "n" Arg.int 5 "System size." in
  let rounds_arg =
    opt_arg "rounds" Arg.(some int) None
      "Round horizon (default: the protocol's at n, f)."
  in
  let patience_arg =
    let doc =
      "Round-completion policy: " ^ Live.Patience.names
      ^ ".  Determines when a live process gives up on its peers — whom \
         it had not heard from by then becomes its fault set D(i,r)."
    in
    Arg.(value & opt string "quorum" & info [ "patience" ] ~docv:"SPEC" ~doc)
  in
  let stress_arg =
    let doc =
      "Run $(docv) live executions and require every one's pinned engine \
       replay to reproduce its decisions bit-for-bit."
    in
    Arg.(value & opt (some int) None & info [ "stress" ] ~docv:"N" ~doc)
  in
  let record_arg =
    file_arg "record"
      "Write the run's extracted history as a check-replayable artifact \
       to $(docv) ($(b,auto) names the file LIVE_<git-sha>.json); verify \
       it later with `rrfd-experiments check --replay PATH`."
  in
  let grid_arg =
    grid_arg
      "Run the E23 n × patience grid instead of a single configuration \
       (--protocol/-n/--f/--rounds/--patience are ignored)."
  in
  let json_arg =
    file_arg "json"
      "With $(b,--grid): write every run's record (history, inputs, \
       decisions, wall time) to $(docv) as JSON ($(b,auto) names the \
       file LIVE_<git-sha>.json).  Collection is nondeterministic — the \
       scheduler decides — but regeneration from a recorded artifact \
       ($(b,--from)) is byte-identical at any -j."
  in
  let from_arg =
    file_arg "from"
      "With $(b,--grid): skip the live phase and rebuild the table (and \
       --json artifact) deterministically from the records in $(docv)."
  in
  let find_protocol name =
    match Protocols.Catalog.find name with
    | Some p -> p
    | None ->
      Printf.eprintf "unknown protocol %S, expected one of: %s\n" name
        (String.concat ", " Protocols.Catalog.names);
      exit 2
  in
  let differential_once proto ~inputs ~patience ~n ~f ~rounds =
    let ex = Protocols.Catalog.run_live proto ~inputs ~patience ~n ~f ~rounds () in
    (ex, (Protocols.Catalog.differential proto ~inputs ~f ex).divergence)
  in
  let run_single ~proto_name ~patience ~n ~f ~rounds ~record =
    let proto = find_protocol proto_name in
    let inputs = Protocols.Catalog.default_inputs ~n in
    let ex, divergence =
      differential_once proto ~inputs ~patience ~n ~f ~rounds
    in
    Printf.printf "live: %s over n=%d f=%d rounds=%d, patience %s\n" proto_name
      n f rounds
      (Live.Patience.to_string patience);
    (match ex.Rrfd.Substrate.wall_ns with
    | Some ns -> Printf.printf "  wall clock: %.3f ms\n" (Int64.to_float ns /. 1e6)
    | None -> ());
    let induced = ex.Rrfd.Substrate.induced in
    Format.printf "  induced history:@;<1 4>@[<v>%a@]@." Rrfd.Fault_history.pp
      induced;
    Printf.printf "  compact: %s\n"
      (Rrfd.Fault_history.to_string_compact induced);
    Printf.printf "  predicates (f=%d): %s\n" f
      (String.concat "  "
         (List.map
            (fun (p, b) -> Printf.sprintf "%s=%s" p (if b then "yes" else "no"))
            (Msgnet.Heard_of.classify ~f induced)));
    (match divergence with
    | None -> Printf.printf "  replay: engine decisions match the live run's.\n"
    | Some i ->
      Printf.printf "  replay: DIVERGED from the abstract engine at p%d.\n" i);
    let recorded_ok =
      match record with
      | None -> true
      | Some path ->
        let path = Report.artifact_path ~prefix:"LIVE" path in
        (match
           Check.Artifact.record ~sut_spec:proto_name ~n ~history:induced ()
         with
        | Ok artifact ->
          Check.Artifact.save path artifact;
          Printf.printf
            "  recorded %s (verify: rrfd-experiments check --replay %s)\n"
            path path;
          true
        | Error msg ->
          Printf.printf "  record FAILED: %s\n" msg;
          false)
    in
    if divergence = None && recorded_ok then 0 else 1
  in
  let run_stress ~seed ~proto_name ~patience ~n ~f ~rounds count =
    let proto = find_protocol proto_name in
    let mismatches = ref 0 in
    for trial = 0 to count - 1 do
      let rng = Dsim.Rng.derive ~seed ~stream:trial in
      let inputs = Protocols.Catalog.default_inputs ~n in
      Dsim.Rng.shuffle_in_place rng inputs;
      let _, divergence =
        differential_once proto ~inputs ~patience ~n ~f ~rounds
      in
      if divergence <> None then incr mismatches
    done;
    Printf.printf
      "live stress: %s, n=%d f=%d rounds=%d, patience %s: %d/%d replays \
       matched\n"
      proto_name n f rounds
      (Live.Patience.to_string patience)
      (count - !mismatches) count;
    if !mismatches = 0 then 0 else 1
  in
  let run seed trials jobs proto_name n f rounds patience stress record grid
      json from =
    setup_logs ();
    if grid then
      let records =
        match from with
        | Some path ->
          or_die (Report.load ~decode:Experiments.E23_live.of_json path)
        | None -> Experiments.E23_live.collect ~seed ?trials ?jobs ()
      in
      run_grid ~prefix:"LIVE" ~what:"live-grid" ~json
        ( Experiments.E23_live.table_of records,
          Experiments.E23_live.to_json records )
    else
      let patience = or_die (Live.Patience.of_spec patience) in
      let f = minority ~n f in
      let rounds =
        match rounds with
        | Some r -> r
        | None ->
          Protocols.Catalog.horizon (find_protocol proto_name) ~n ~f
      in
      match stress with
      | Some count -> run_stress ~seed ~proto_name ~patience ~n ~f ~rounds count
      | None -> run_single ~proto_name ~patience ~n ~f ~rounds ~record
  in
  Cmd.v
    (Cmd.info "live"
       ~doc:
         "Run a protocol on the live substrate — one OCaml domain per \
          process, real mailboxes, real clock — extract the heard-of fault \
          history the scheduler induced, classify it against the paper's \
          predicate ladder and differentially replay it pinned on the \
          abstract engine.  One run, a --stress campaign, a --record \
          artifact for check --replay, or the E23 --grid.")
    Term.(
      const run $ seed_arg $ trials_arg $ jobs_arg $ protocol_arg $ n_arg
      $ f_minority_arg $ rounds_arg $ patience_arg $ stress_arg $ record_arg $ grid_arg
      $ json_arg $ from_arg)

(* `scale` — the E25 large-n grid on the wide Pset.  Default mode runs
   the correctness campaign (kset / heartbeat / ct at every --ns size)
   and optionally writes a deterministic JSON artifact: it depends only
   on --seed, --trials and --ns — never on -j — which is what the
   scale smoke gate compares byte-for-byte.  --bench instead times the
   same probes wall-clock and denominates them in work units (ns/run,
   ns/round, ns/msg); the n = 100 subjects are gated in bench/main.exe's
   --check against bench/baseline.json. *)
let scale_cmd =
  let ns_arg =
    let doc =
      "Comma-separated system sizes to run the probes at.  Anything above \
       62 exercises the multi-word Pset representation; n = 10000 is \
       feasible for the kset probe but budget minutes for the simulated \
       network probes."
    in
    Arg.(value & opt (list int) [ 100; 1000 ] & info [ "ns" ] ~docv:"N,N,..." ~doc)
  in
  let json_arg =
    file_arg "json"
      "Write the grid's per-trial digests (ok flags, work counters, \
       decision checksums) to $(docv) as JSON ($(b,auto) names the file \
       SCALE_<git-sha>.json).  With $(b,--bench): write the throughput \
       subjects as a BENCH report instead."
  in
  let bench_arg =
    let doc =
      "Time the probes instead of campaigning them: wall-clock each \
       (probe, n) cell, report ns/run with ns/round and ns/msg work \
       denominators (plus rounds/s and msgs/s for humans)."
    in
    Arg.(value & flag & info [ "bench" ] ~doc)
  in
  let repeats_arg =
    let doc = "With $(b,--bench): timed repetitions per (probe, n) cell." in
    Arg.(value & opt int 2 & info [ "repeats" ] ~doc)
  in
  let run_bench ~seed ~ns ~repeats ~json =
    let now_ns () = Mclock.now () in
    let ms = Experiments.E25_scale.measure ~now_ns ~seed ~ns ~repeats () in
    Experiments.E25_scale.print_measurements ms;
    let report =
      {
        Report.version = Report.version;
        meta = Report.host_meta ~seed:0;
        subjects = Experiments.E25_scale.subjects_of ms;
        tables = [];
        speedup = None;
      }
    in
    Option.iter
      (fun path ->
        let path = Report.artifact_path ~prefix:"SCALE" path in
        Report.save ~pretty:false path (Report.to_json report);
        Printf.printf "scale bench report written to %s\n" path)
      json;
    if List.for_all (fun m -> m.Experiments.E25_scale.m_ok) ms then 0
    else begin
      Printf.printf "scale: a probe FAILED its correctness gate while timed\n";
      1
    end
  in
  let run seed trials jobs ns json bench repeats =
    setup_logs ();
    if ns = [] || List.exists (fun n -> n < 1) ns then begin
      Printf.eprintf "--ns needs at least one positive size\n";
      2
    end
    else if bench then run_bench ~seed ~ns ~repeats ~json
    else
      let table, cells =
        Experiments.E25_scale.run_detailed ~seed ?trials ?jobs ~ns ()
      in
      run_grid ~prefix:"SCALE" ~what:"scale grid" ~json
        (table, Experiments.E25_scale.to_json cells)
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Run the E25 large-n scaling grid on the wide Pset — one-round \
          k-set agreement, heartbeat convergence and Chandra-Toueg \
          consensus at sizes far beyond the one-word 62-process cap — as \
          a deterministic correctness campaign (--json artifact, \
          -j-independent) or a work-denominated throughput measurement \
          (--bench).")
    Term.(
      const run $ seed_arg $ trials_arg $ jobs_arg $ ns_arg $ json_arg
      $ bench_arg $ repeats_arg)

(* `byz` — the E24 Byzantine accountability battery: a single forked
   execution with its audit transcript, the full grid, the soundness
   fuzzer, the proof-grade exhaustive enumeration, and e24-byz artifact
   save/replay.  The --grid --json artifact depends only on --seed and
   --trials — never on -j — which is what the byz smoke gate compares
   byte-for-byte. *)
let byz_cmd =
  let module Acc = Msgnet.Accountability in
  let module Byz = Check.Byz_check in
  let n_arg = opt_arg "n" Arg.int 4 "System size." in
  let f_arg = opt_arg "f" Arg.int 1 "Audit resilience bound." in
  let byz_arg =
    Arg.(
      value & opt int 2
      & info [ "byz" ] ~doc:"Byzantine member count (processes 0..byz-1).")
  in
  let forge_arg =
    Arg.(
      value & flag
      & info [ "forge" ]
          ~doc:"Let fuzzed members fabricate phantom-quorum certificates.")
  in
  let grid_arg =
    grid_arg "Run the full E24 grid instead of the single-fork demo."
  in
  let json_arg =
    file_arg "json"
      "With $(b,--grid): also write the table and per-row digests to \
       $(docv) as compact JSON ($(b,auto) names the file \
       BYZ_<git-sha>.json).  The output depends only on --seed and \
       --trials — never on -j — which is what the byz smoke gate \
       compares."
  in
  let fuzz_arg =
    let doc =
      "Fuzz soundness over $(docv) random lying plans: the audit must \
       never accuse an honest process, and every fork must convict \
       ≥ f+1."
    in
    Arg.(value & opt (some int) None & info [ "fuzz" ] ~docv:"TRIALS" ~doc)
  in
  let exhaustive_arg =
    let doc =
      "Enumerate the entire per-receiver vote-strategy space (16² = 256 \
       combinations at the n=4 defaults) under --exhaustive-seeds delay \
       schedules each: a finite completeness proof, not a sample."
    in
    Arg.(value & flag & info [ "exhaustive" ] ~doc)
  in
  let seeds_arg =
    Arg.(
      value & opt int 3
      & info [ "exhaustive-seeds" ] ~docv:"K"
          ~doc:"Delay schedules per enumerated strategy combination.")
  in
  let save_arg =
    file_arg "save"
      "With the single-fork demo: save the witness and its expected \
       outcome as a replayable e24-byz JSON artifact at $(docv)."
  in
  let replay_arg =
    file_arg "replay"
      "Replay an e24-byz artifact and verify the pinned fork flag and \
       accused set reproduce (exit 0 iff they do)."
  in
  let pp_verdict ppf = function
    | Acc.Accountable -> Format.fprintf ppf "accountable"
    | Acc.Unsound honest ->
      Format.fprintf ppf "UNSOUND (honest %s accused)"
        (Rrfd.Pset.to_string honest)
    | Acc.Incomplete { accused; needed } ->
      Format.fprintf ppf "INCOMPLETE (%d accused, %d needed)"
        (Rrfd.Pset.cardinal accused) needed
  in
  let print_outcome ~f (o : Acc.outcome) =
    Array.iteri
      (fun i d ->
        match d with
        | None -> Printf.printf "  p%d: no decision\n" i
        | Some (v, q) ->
          Printf.printf "  p%d: decided %d on quorum %s\n" i v
            (Rrfd.Pset.to_string q))
      o.Acc.decisions;
    (match o.Acc.fork with
    | None -> Printf.printf "  no fork among honest deciders\n"
    | Some (p, q) ->
      Printf.printf "  FORK: honest p%d and p%d decided differently\n" p q);
    Printf.printf "  audit over %d signed sends (%d tampered):\n"
      (List.length o.Acc.log) o.Acc.messages_tampered;
    List.iter
      (fun a -> Format.printf "    %a@." Acc.pp_accusation a)
      o.Acc.accusations;
    Format.printf "  verdict: %a@." pp_verdict (Acc.check ~f o)
  in
  let run_demo ~seed ~n ~f ~byz ~forge ~save =
    (* Walk derived seeds until the split-brain plan actually forks —
       deterministic in --seed, and each attempt is a legitimate
       execution of the same lying strategy under a fresh schedule. *)
    let inputs = Byz.binary_inputs n in
    let strategies = Array.make n None in
    for i = 0 to byz - 1 do
      let cert =
        if forge then Some (0, Rrfd.Pset.of_list (List.init (n - f) Fun.id))
        else None
      in
      strategies.(i) <- Some { Acc.votes = Array.copy inputs; cert }
    done;
    let witness_at k =
      { Byz.n; f; seed = Dsim.Rng.derive_seed seed k; inputs; strategies }
    in
    let attempts = 200 in
    let rec hunt k =
      if k >= attempts then None
      else
        let w = witness_at k in
        if Byz.forks w then Some (k, w) else hunt (k + 1)
    in
    Printf.printf
      "byz: split-brain plan, n=%d f=%d byz=%d%s (every member echoes \
       each receiver's own input)\n"
      n f byz
      (if forge then " + forged certs" else "");
    match hunt 0 with
    | None ->
      Printf.printf
        "  no fork in %d delay schedules — below the n/3 threshold this \
         is the theorem, above it try another --seed\n"
        attempts;
      if 3 * byz > n then 1 else 0
    | Some (k, w) ->
      let outcome = Byz.run_witness w in
      Printf.printf "  fork found at schedule %d (seed %d):\n" k w.Byz.seed;
      print_outcome ~f outcome;
      Option.iter
        (fun path ->
          Byz.save path (Byz.of_outcome w outcome);
          Printf.printf "  artifact written to %s\n" path)
        save;
      if Acc.check ~f outcome = Acc.Accountable then 0 else 1
  in
  let run_fuzz ~seed ~jobs ~n ~f ~byz ~forge ~trials =
    let r = Byz.fuzz ?jobs ~n ~f ~byz ~forge ~seed ~trials () in
    Printf.printf
      "byz fuzz: %d trials (n=%d f=%d byz=%d%s) — %d forked, %d sends \
       tampered, %d violations\n"
      r.Byz.trials n f byz
      (if forge then " forge" else "")
      r.Byz.forked r.Byz.tampered r.Byz.violations;
    (match r.Byz.first_violation with
    | None -> ()
    | Some (idx, w, v) ->
      Format.printf "  first violation at trial %d: %a@." idx pp_verdict v;
      let path = Printf.sprintf "BYZ_violation_%d.json" idx in
      Byz.save path (Byz.of_outcome w (Byz.run_witness w));
      Printf.printf "  witness saved to %s\n" path);
    if r.Byz.violations = 0 then 0 else 1
  in
  let run_exhaustive ~seed ~jobs ~seeds ~n ~f ~byz =
    let r = Byz.exhaustive ?jobs ~seeds ~n ~f ~byz ~seed () in
    Printf.printf
      "byz exhaustive: %d strategy combinations × %d schedules = %d runs \
       (n=%d f=%d byz=%d)\n"
      r.Byz.combos seeds r.Byz.runs n f byz;
    Printf.printf "  forked: %d   min accused on fork: %s   violations: %d\n"
      r.Byz.forked
      (match r.Byz.min_accused_on_fork with
      | None -> "-"
      | Some m -> string_of_int m)
      r.Byz.violations;
    let complete =
      r.Byz.violations = 0 && r.Byz.forked > 0
      && match r.Byz.min_accused_on_fork with
         | Some m -> m >= f + 1
         | None -> false
    in
    Printf.printf
      (if complete then
         "  completeness proved: every fork in the space convicts ≥ f+1 = \
          %d, soundly\n"
       else "  completeness NOT established (f+1 = %d)\n")
      (f + 1);
    if complete then 0 else 1
  in
  let run_replay path =
    let artifact = or_die (Byz.load path) in
    let r = Byz.replay artifact in
    Printf.printf "byz replay: %s\n" path;
    print_outcome ~f:artifact.Byz.witness.Byz.f r.Byz.outcome;
    Printf.printf "  fork %s, accused set %s\n"
      (if r.Byz.fork_match then "reproduced" else "DIVERGED")
      (if r.Byz.accused_match then "reproduced" else "DIVERGED");
    if Byz.reproduced r then 0 else 1
  in
  let run seed trials jobs n f byz forge grid json fuzz exhaustive seeds save
      replay =
    setup_logs ();
    match replay with
    | Some path -> run_replay path
    | None ->
      if grid then
        run_grid ~prefix:"BYZ" ~what:"grid" ~json
          (table_grid ~seed Experiments.E24_byzantine.detail_json
             (Experiments.E24_byzantine.run_detailed ~seed ?trials ?jobs ()))
      else if exhaustive then run_exhaustive ~seed ~jobs ~seeds ~n ~f ~byz
      else
        match fuzz with
        | Some trials -> run_fuzz ~seed ~jobs ~n ~f ~byz ~forge ~trials
        | None -> run_demo ~seed ~n ~f ~byz ~forge ~save
  in
  Cmd.v
    (Cmd.info "byz"
       ~doc:
         "Byzantine round-machines with fork accountability (E24): fork \
          the accountable quorum vote with equivocating members, replay \
          the signed send log into ≥ f+1 convictions, fuzz the audit's \
          soundness, prove its completeness exhaustively, and save or \
          replay e24-byz witnesses.")
    Term.(
      const run $ seed_arg $ trials_arg $ jobs_arg $ n_arg $ f_arg $ byz_arg
      $ forge_arg $ grid_arg $ json_arg $ fuzz_arg $ exhaustive_arg
      $ seeds_arg $ save_arg $ replay_arg)

let derive_cmd =
  let module Derive = Check.Derive in
  let policy_arg =
    let doc =
      "Adversary policy to characterise, atoms joined with '+': "
      ^ Check.Spec.adversary_names ^ "."
    in
    Arg.(
      value & opt string "drop:p=20" & info [ "policy" ] ~docv:"SPEC" ~doc)
  in
  let n_arg = opt_arg "n" Arg.int 5 "System size." in
  let rounds_arg = opt_arg "rounds" Arg.int 4 "Simulated rounds." in
  let fuzz_arg =
    let doc =
      "Certification trials: fresh executions, sharded through \
       Campaign.search, that must all satisfy the derived predicate \
       (the upward certificate; the verdict is identical at every -j)."
    in
    Arg.(value & opt int 10_000 & info [ "fuzz" ] ~docv:"TRIALS" ~doc)
  in
  let exhaustive_arg =
    let doc =
      "Prove tightness by enumeration: for each frontier member, search \
       the $(i,whole) space of derived-predicate histories for a \
       separating one (requires n ≤ 4; the space is ((2^n-1)^n)^rounds)."
    in
    Arg.(value & flag & info [ "exhaustive" ] ~doc)
  in
  let grid_arg =
    grid_arg
      "Run the full E26 grid — every E21 policy plus a Byzantine row at \
       n=5 f=2, and two exhaustively-proven rows at n=3 — instead of a \
       single policy (--policy/-n/-f/--rounds/--exhaustive ignored; \
       --trials sets the observation count per row, with certification \
       at twice that)."
  in
  let json_arg =
    file_arg "json"
      "With $(b,--grid): also write the table and every row's full \
       e26-derive artifact (witnesses and separations included) to \
       $(docv) as compact JSON ($(b,auto) names the file \
       DERIVE_<git-sha>.json).  The output depends only on --seed and \
       --trials — never on -j — which is what the derive smoke gate \
       compares."
  in
  let save_arg =
    file_arg "save"
      "Save the derivation — policy, derived predicate, every witness \
       and separation — as a replayable e26-derive artifact."
  in
  let replay_arg =
    file_arg "replay"
      "Replay a saved e26-derive artifact: re-check every witness pair, \
       re-run each fuzz witness's (seed, trial) execution and each \
       separation's enumeration, and demand bit-identical histories."
  in
  let run_replay path =
    let outcome = or_die (Derive.load path) in
    let r = or_die (Derive.replay outcome) in
    Printf.printf "derive replay: %s (policy %s)\n" path
      outcome.Derive.policy;
    Printf.printf "  derived: %s\n"
      (String.concat " ∧ " outcome.Derive.conjuncts);
    Printf.printf "  witness pairs: %s\n"
      (if r.Derive.witnesses_valid then "valid" else "INVALID");
    Printf.printf "  fuzz witnesses: %s\n"
      (if r.Derive.fuzz_reproduced then "reproduced bit-for-bit"
       else "DIVERGED");
    Printf.printf "  separations: %s\n"
      (if r.Derive.separations_valid then "re-proved by enumeration"
       else "DIVERGED");
    if Derive.reproduced r then 0 else 1
  in
  let run_single ~seed ~trials ~jobs ~policy ~n ~f ~rounds ~fuzz ~exhaustive
      ~save =
    let cfg =
      {
        Derive.n;
        f;
        rounds;
        observe_trials = Option.value trials ~default:2000;
        certify_trials = fuzz;
        exhaustive;
        seed;
        jobs;
      }
    in
    let outcome = or_die (Derive.derive ~cfg ~policy ()) in
    Format.printf "%a@." Derive.pp outcome;
    Option.iter
      (fun path ->
        Derive.save path outcome;
        Printf.printf "artifact written to %s\n" path)
      save;
    if Derive.ok outcome then 0 else 1
  in
  let run seed trials jobs policy n f rounds fuzz exhaustive grid json save
      replay =
    setup_logs ();
    match replay with
    | Some path -> run_replay path
    | None ->
      if grid then
        run_grid ~prefix:"DERIVE" ~what:"grid" ~json
          (table_grid ~seed Experiments.E26_derive.detail_json
             (Experiments.E26_derive.run_detailed ~seed ?trials ?jobs ()))
      else
        run_single ~seed ~trials ~jobs ~policy ~n ~f:(minority ~n f) ~rounds
          ~fuzz ~exhaustive ~save
  in
  Cmd.v
    (Cmd.info "derive"
       ~doc:
         "Derive the strongest heard-of predicate an adversary policy's \
          executions satisfy (E26), certified two-sidedly: a fresh fuzz \
          campaign proves it sound, a violating execution per stronger \
          candidate proves it tight (at small n by exhaustive \
          enumeration), with replayable e26-derive artifacts.")
    Term.(
      const run $ seed_arg $ trials_arg $ jobs_arg $ policy_arg $ n_arg
      $ f_minority_arg $ rounds_arg $ fuzz_arg $ exhaustive_arg $ grid_arg $ json_arg
      $ save_arg $ replay_arg)

let main =
  let doc =
    "Reproduce the results of Gafni's 'Round-by-Round Fault Detectors' \
     (PODC 1998)."
  in
  Cmd.group
    (Cmd.info "rrfd-experiments" ~version:"1.0.0" ~doc)
    [ list_cmd; run_cmd; all_cmd; lattice_cmd; trace_cmd; check_cmd;
      faultnet_cmd; xsub_cmd; live_cmd; scale_cmd; byz_cmd; derive_cmd ]

let () = exit (Cmd.eval' main)
