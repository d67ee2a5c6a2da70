(* The rrfd benchmark driver.

   Runs one named workload in this process, on one domain ([jobs = 1],
   so Runtime.Pool takes its serial branch), and prints one JSON object
   as the last line of standard output.  Each workload has a fixed job
   — a library call a user waits on — that is repeated until the time
   budget is spent; timings are medians over those repeats, each taken
   relative to a reference kernel (see Host speed below).  run.py runs
   this program several times and takes medians over the processes.

   Two paths drive each job:
   - the library path calls the public entry point as a user would
     ([Check.Checker.fuzz], [Check.Derive.derive], the E25 probes) and
     gives the end-to-end metrics, with tracing off;
   - the re-driven path replays the same job from this file, calling
     each layer's public functions itself so that spans can be opened
     around them.  Without tracing it yields the exact work counts
     (rounds, messages) the library path does not expose; with tracing
     it yields the per-layer metrics.  Its verdict must equal the
     library path's bit for bit, which is checked on every run.

   See README.md for why each workload exists and which layer each
   metric belongs to. *)

let now () = Int64.to_int (Monotonic_clock.now ())

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let get = function Ok v -> v | Error e -> die "%s" e

(* {1 Spans}

   Spans are opened from this file around calls into the libraries.
   Each closed span adds its self time (duration minus the time covered
   by its child spans) to its kind; the first [capacity] spans of the
   first traced job are also kept in memory, with their parent and the
   execution they belong to, and written out when the run ends.  All
   state lives in preallocated int arrays, so a span allocates
   nothing. *)
module Span = struct
  let names =
    [|
      "gen";
      "predicate.holds";
      "predicate.check_round";
      "engine";
      "detector.query";
      "detector.build";
      "property";
      "round_layer";
      "submodel.query";
      "network.broadcast";
      "network.create";
      "sim";
      "heartbeat.beat";
      "heartbeat.sweep";
      "ct";
    |]

  let gen = 0

  let holds = 1

  let check_round = 2

  let engine = 3

  let detector = 4

  let detector_build = 5

  let property = 6

  let round_layer = 7

  let submodel = 8

  let broadcast = 9

  let net_create = 10

  let sim = 11

  let beat = 12

  let sweep = 13

  let ct = 14

  let kinds = Array.length names

  let on = ref false

  let recording = ref false

  let self_ns = Array.make kinds 0

  let calls = Array.make kinds 0

  let max_depth = 64

  let depth = ref 0

  let st_kind = Array.make max_depth 0

  let st_start = Array.make max_depth 0

  let st_child = Array.make max_depth 0

  let st_id = Array.make max_depth (-1)

  let capacity = 1 lsl 16

  let b_kind = Array.make capacity 0

  let b_start = Array.make capacity 0

  let b_stop = Array.make capacity 0

  let b_parent = Array.make capacity 0

  let b_exec = Array.make capacity 0

  let recorded = ref 0

  let exec = ref 0

  let reset_totals () =
    Array.fill self_ns 0 kinds 0;
    Array.fill calls 0 kinds 0

  let enter kind =
    if !on then begin
      let d = !depth in
      st_kind.(d) <- kind;
      st_child.(d) <- 0;
      st_id.(d) <-
        (if !recording && !recorded < capacity then begin
           let id = !recorded in
           incr recorded;
           id
         end
         else -1);
      depth := d + 1;
      st_start.(d) <- now ()
    end

  let leave () =
    if !on then begin
      let stop = now () in
      let d = !depth - 1 in
      depth := d;
      let dur = stop - st_start.(d) in
      let k = st_kind.(d) in
      self_ns.(k) <- self_ns.(k) + dur - st_child.(d);
      calls.(k) <- calls.(k) + 1;
      if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur;
      let id = st_id.(d) in
      if id >= 0 then begin
        b_kind.(id) <- k;
        b_start.(id) <- st_start.(d);
        b_stop.(id) <- stop;
        b_parent.(id) <- (if d > 0 then st_id.(d - 1) else -1);
        b_exec.(id) <- !exec
      end
    end

  let wrap kind f x =
    enter kind;
    match f x with
    | v ->
      leave ();
      v
    | exception e ->
      leave ();
      raise e

  (* Chrome trace-event JSON: load it in Perfetto or chrome://tracing. *)
  let write path =
    let oc = open_out path in
    let origin = if !recorded > 0 then b_start.(0) else 0 in
    output_string oc "{\"traceEvents\":[";
    for i = 0 to !recorded - 1 do
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\
         \"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"exec\":%d}}"
        names.(b_kind.(i))
        (float_of_int (b_start.(i) - origin) /. 1e3)
        (float_of_int (b_stop.(i) - b_start.(i)) /. 1e3)
        i b_parent.(i) b_exec.(i)
    done;
    output_string oc "]}\n";
    close_out oc
end

(* {1 Work counts}

   Filled by the re-driven path, traced or not.  Reset before each
   re-driven job, so every field is a per-job count. *)
type work = {
  mutable rounds : int;  (** Simulated rounds, as Rrfd.Counters counts them. *)
  mutable messages : int;  (** Delivered messages, likewise. *)
  mutable gen_calls : int;
  mutable gen_accepted : int;
  mutable gen_words : int;
  mutable engine_runs : int;
  mutable engine_rounds : int;
  mutable engine_words : int;
  mutable detector_queries : int;
  mutable rl_execs : int;
  mutable rl_messages : int;
  mutable rl_words : int;
  mutable observe_ns : int;
  mutable certify_ns : int;
  mutable sim_events : int;
  mutable peak_pending : int;
  mutable delivered : int;
  mutable ct_messages : int;
  mutable ct_phases : int;
}

let w =
  {
    rounds = 0;
    messages = 0;
    gen_calls = 0;
    gen_accepted = 0;
    gen_words = 0;
    engine_runs = 0;
    engine_rounds = 0;
    engine_words = 0;
    detector_queries = 0;
    rl_execs = 0;
    rl_messages = 0;
    rl_words = 0;
    observe_ns = 0;
    certify_ns = 0;
    sim_events = 0;
    peak_pending = 0;
    delivered = 0;
    ct_messages = 0;
    ct_phases = 0;
  }

let reset_work () =
  w.rounds <- 0;
  w.messages <- 0;
  w.gen_calls <- 0;
  w.gen_accepted <- 0;
  w.gen_words <- 0;
  w.engine_runs <- 0;
  w.engine_rounds <- 0;
  w.engine_words <- 0;
  w.detector_queries <- 0;
  w.rl_execs <- 0;
  w.rl_messages <- 0;
  w.rl_words <- 0;
  w.observe_ns <- 0;
  w.certify_ns <- 0;
  w.sim_events <- 0;
  w.peak_pending <- 0;
  w.delivered <- 0;
  w.ct_messages <- 0;
  w.ct_phases <- 0

let add_counters (c : Rrfd.Counters.t) =
  w.rounds <- w.rounds + c.Rrfd.Counters.rounds;
  w.messages <- w.messages + c.Rrfd.Counters.messages

let words () = int_of_float (Gc.minor_words ())

(* Per-execution latency of traced jobs, in ns. *)
let latencies = ref (Array.make 4096 0)

let latency_count = ref 0

let exec_started = ref 0

let exec_begin id =
  Span.exec := id;
  if !Span.on then exec_started := now ()

let exec_end () =
  if !Span.on then begin
    if !latency_count = Array.length !latencies then begin
      let bigger = Array.make (2 * !latency_count) 0 in
      Array.blit !latencies 0 bigger 0 !latency_count;
      latencies := bigger
    end;
    !latencies.(!latency_count) <- now () - !exec_started;
    incr latency_count
  end

(* {1 Layer wrappers}

   Each wrapper behaves exactly like the value it wraps; it only opens
   a span around the call.  The wrapped closures are built once, so a
   call through a wrapper allocates no more than a direct call. *)

let traced_predicate p =
  let explain = Rrfd.Predicate.explain p in
  Rrfd.Predicate.make ~name:(Rrfd.Predicate.name p) ~doc:(Rrfd.Predicate.doc p)
    ~incr:(fun h ~round ->
      Span.enter Span.check_round;
      match Rrfd.Predicate.check_round p h ~round with
      | v ->
        Span.leave ();
        v
      | exception e ->
        Span.leave ();
        raise e)
    (fun h -> Span.wrap Span.holds explain h)

let traced_property p =
  let check = Check.Property.check p in
  Check.Property.make ~name:(Check.Property.name p) ~doc:(Check.Property.doc p)
    (fun obs -> Span.wrap Span.property check obs)

let traced_detector d =
  let next = Rrfd.Detector.next d in
  Rrfd.Detector.make ~name:(Rrfd.Detector.name d) (fun h ->
      w.detector_queries <- w.detector_queries + 1;
      Span.wrap Span.detector next h)

let engine_run f x =
  let w0 = words () in
  let obs = Span.wrap Span.engine f x in
  w.engine_words <- w.engine_words + (words () - w0);
  w.engine_runs <- w.engine_runs + 1;
  w.engine_rounds <- w.engine_rounds + obs.Check.Property.rounds_used;
  (* Counting messages walks the history; the traced run has no use for
     the count, and the walk would show as time outside every span. *)
  if not !Span.on then
    add_counters (Rrfd.Counters.of_history obs.Check.Property.history);
  obs

(* [Check.Checker.test_history] as an engine run: whether some property
   failed. *)
let test_history ~sut ~predicate ~properties h =
  let failure = ref None in
  ignore
    (engine_run
       (fun h ->
         let obs, f =
           Check.Checker.test_history ~sut ~predicate ~properties h
         in
         failure := f;
         obs)
       h);
  !failure <> None

(* {1 Workloads} *)

type instance = {
  execs : int;  (** Executions in one job. *)
  job : unit -> string * int;
      (** The library path: the job's verdict, rendered canonically,
          and how many of its executions failed their check. *)
  redrive : unit -> string;
      (** The re-driven path: the same verdict, with {!w} filled. *)
  lattice_ns : int;  (** Time spent building the Submodel lattice. *)
}

type workload = {
  name : string;
  setup : seed:int -> wrong:bool -> instance;
      (** [wrong] swaps in a deliberately wrong expectation, so every
          check of the job fails: the negative test of the checks. *)
}

let fuzz_verdict = function
  | None -> "no counterexample"
  | Some trial -> Printf.sprintf "counterexample at trial %d" trial

(* Both fuzz searches are sound, so the expected verdict is "no
   counterexample"; a counterexample is one failed execution. *)
let fuzz_failed ~wrong found = if (found = None) = wrong then 1 else 0

let fuzz_reject_trials = 10_000

let fuzz_reject ~seed ~wrong =
  let n = 8 and attempts = 64 in
  let sut = get (Check.Spec.sut "kset-one-round") in
  let predicate = get (Check.Spec.predicate "kset:k=2") in
  let properties = [ get (Check.Spec.property "k-agreement:k=2") ] in
  let rounds = Check.Sut.rounds sut in
  let config =
    {
      Check.Checker.n;
      rounds;
      trials = fuzz_reject_trials;
      seed;
      jobs = Some 1;
      attempts;
    }
  in
  let job () =
    let found =
      Option.map
        (fun ce -> ce.Check.Checker.trial)
        (Check.Checker.fuzz config ~sut ~predicate ~properties ())
    in
    (fuzz_verdict found, fuzz_failed ~wrong found)
  in
  let t_predicate = traced_predicate predicate in
  let t_properties = List.map traced_property properties in
  (* Checker.fuzz's candidate function, without [generator]. *)
  let redrive () =
    Runtime.Campaign.search ~jobs:1 ~seed ~trials:fuzz_reject_trials
      (fun ~trial ~rng ->
        exec_begin trial;
        let w0 = words () in
        let raw =
          Span.wrap Span.gen
            (fun rng ->
              Check.Gen.history ~attempts rng ~n ~rounds
                ~satisfying:t_predicate)
            rng
        in
        w.gen_words <- w.gen_words + (words () - w0);
        w.gen_calls <- w.gen_calls + 1;
        let hit =
          match raw with
          | None -> None
          | Some h ->
            w.gen_accepted <- w.gen_accepted + 1;
            if
              test_history ~sut ~predicate:t_predicate
                ~properties:t_properties h
            then Some trial
            else None
        in
        exec_end ();
        hit)
    |> fuzz_verdict
  in
  { execs = fuzz_reject_trials; job; redrive; lattice_ns = 0 }

let fuzz_construct_trials = 50_000

let fuzz_construct ~seed ~wrong =
  let n = 5 in
  let sut = get (Check.Spec.sut "adopt-commit") in
  let generator, predicate = get (Check.Spec.generator "async:f=2") in
  let properties =
    List.map
      (fun s -> get (Check.Spec.property s))
      (Check.Spec.default_properties sut)
  in
  let rounds = Check.Sut.rounds sut in
  let config =
    {
      Check.Checker.n;
      rounds;
      trials = fuzz_construct_trials;
      seed;
      jobs = Some 1;
      attempts = 64;
    }
  in
  let job () =
    let found =
      Option.map
        (fun ce -> ce.Check.Checker.trial)
        (Check.Checker.fuzz config ~sut ~predicate ~generator ~properties ())
    in
    (fuzz_verdict found, fuzz_failed ~wrong found)
  in
  let t_predicate = traced_predicate predicate in
  let t_properties = List.map traced_property properties in
  (* Checker.fuzz's candidate function, with [generator]. *)
  let redrive () =
    Runtime.Campaign.search ~jobs:1 ~seed ~trials:fuzz_construct_trials
      (fun ~trial ~rng ->
        exec_begin trial;
        let detector =
          traced_detector
            (Span.wrap Span.detector_build (fun rng -> generator rng ~n) rng)
        in
        let obs =
          engine_run
            (fun detector ->
              Check.Sut.run sut ~n ~max_rounds:rounds ~check:t_predicate
                ~detector)
            detector
        in
        let hit =
          if obs.Check.Property.violation <> None then None
          else if
            test_history ~sut ~predicate:t_predicate ~properties:t_properties
              obs.Check.Property.history
          then Some trial
          else None
        in
        exec_end ();
        hit)
    |> fuzz_verdict
  in
  { execs = fuzz_construct_trials; job; redrive; lattice_ns = 0 }

let derive_policy = "drop:p=20+dup:p=20"

(* The derived predicate of [derive_policy] under Derive.default_config,
   pinned from its default seed 26.  Any seed must give the same answer:
   2 000 observations refute every stronger candidate. *)
let derive_expected = [ "no-self"; "async:f=2" ]

let derive ~seed ~wrong =
  let cfg = { Check.Derive.default_config with seed; jobs = Some 1 } in
  let n = cfg.Check.Derive.n
  and f = cfg.Check.Derive.f
  and rounds = cfg.Check.Derive.rounds in
  let adversary = get (Check.Spec.adversary derive_policy) in
  let cands = Check.Derive.candidates ~n ~f in
  let named = List.map (fun s -> (s, get (Check.Spec.predicate s))) cands in
  let t0 = now () in
  let lattice = get (Check.Derive.lattice_for ~cfg) in
  let lattice_ns = now () - t0 in
  let render ~sound ~conjuncts ~certified =
    Printf.sprintf "sound=[%s] conjuncts=[%s] certified=%b"
      (String.concat "; " sound)
      (String.concat "; " conjuncts)
      certified
  in
  let expected = if wrong then [ "no-self" ] else derive_expected in
  let job () =
    let o = get (Check.Derive.derive ~lattice ~cfg ~policy:derive_policy ()) in
    let failed =
      if Check.Derive.ok o && o.Check.Derive.conjuncts = expected then 0 else 1
    in
    ( render ~sound:o.Check.Derive.sound ~conjuncts:o.Check.Derive.conjuncts
        ~certified:o.Check.Derive.certified,
      failed )
  in
  let preds =
    Array.of_list (List.map (fun (_, p) -> traced_predicate p) named)
  in
  let specs = Array.of_list cands in
  let induced ~rng =
    let w0 = words () in
    let h, c =
      Span.wrap Span.round_layer
        (fun rng -> Check.Derive.induced_history ~adversary ~n ~f ~rounds ~rng)
        rng
    in
    w.rl_words <- w.rl_words + (words () - w0);
    w.rl_execs <- w.rl_execs + 1;
    w.rl_messages <- w.rl_messages + c.Rrfd.Counters.messages;
    add_counters c;
    h
  in
  (* Derive.derive's observation and certification campaigns, on the
     seeds it derives from [cfg.seed]. *)
  let redrive () =
    let t0 = now () in
    let masks =
      Runtime.Campaign.run ~jobs:1
        ~seed:(Dsim.Rng.derive_seed seed 1)
        ~trials:cfg.Check.Derive.observe_trials
        (fun ~trial ~rng ->
          exec_begin trial;
          let h = induced ~rng in
          let mask = ref 0 in
          Array.iteri
            (fun i p ->
              if not (Rrfd.Predicate.holds p h) then
                mask := !mask lor (1 lsl i))
            preds;
          exec_end ();
          !mask)
    in
    let violated = Array.fold_left ( lor ) 0 masks in
    let sound =
      List.filteri
        (fun i _ -> violated land (1 lsl i) = 0)
        (Array.to_list specs)
    in
    let conjuncts =
      Span.wrap Span.submodel (Rrfd.Submodel.minimal_conjuncts lattice) sound
    in
    let t1 = now () in
    let derived =
      match List.filter (fun (s, _) -> List.mem s sound) named with
      | [] -> Rrfd.Predicate.always
      | (_, p) :: rest ->
        traced_predicate
          (List.fold_left (fun acc (_, q) -> Rrfd.Predicate.conj acc q) p rest)
    in
    let violation =
      Runtime.Campaign.search ~jobs:1
        ~seed:(Dsim.Rng.derive_seed seed 2)
        ~trials:cfg.Check.Derive.certify_trials
        (fun ~trial ~rng ->
          exec_begin (cfg.Check.Derive.observe_trials + trial);
          let h = induced ~rng in
          let hit =
            if Rrfd.Predicate.holds derived h then None else Some trial
          in
          exec_end ();
          hit)
    in
    let t2 = now () in
    w.observe_ns <- t1 - t0;
    w.certify_ns <- t2 - t1;
    render ~sound ~conjuncts ~certified:(violation = None)
  in
  {
    execs = cfg.Check.Derive.observe_trials + cfg.Check.Derive.certify_trials;
    job;
    redrive;
    lattice_ns;
  }

let netscale_n = 300

let netscale_probes = [ ("heartbeat", 1); ("ct", 1) ]

let render_digest probe (d : Experiments.E25_scale.digest) =
  Printf.sprintf "%s ok=%b rounds=%d messages=%d checksum=%d" probe
    d.Experiments.E25_scale.ok d.counters.Rrfd.Counters.rounds
    d.counters.Rrfd.Counters.messages d.checksum

(* E25's heartbeat probe, re-driven: the same simulator, network and
   detector, with spans around the network's sends, the detector's
   beats and the simulator loop that dispatches them. *)
let heartbeat_redrive ~seed ~n =
  let sim = Dsim.Sim.create ~seed () in
  let hb = ref None in
  let sample_pending () =
    let p = Dsim.Sim.pending sim in
    if p > w.peak_pending then w.peak_pending <- p
  in
  let deliver _ ~to_ ~from () =
    sample_pending ();
    Span.enter Span.beat;
    Msgnet.Heartbeat.beat (Option.get !hb) ~at:to_ ~from;
    Span.leave ()
  in
  let net =
    Span.wrap Span.net_create
      (fun () -> Msgnet.Network.create ~sim ~n ~deliver ())
      ()
  in
  hb :=
    Some
      (Span.wrap Span.net_create
         (fun () ->
           Msgnet.Heartbeat.create ~sim ~n
             ~send_heartbeat:(fun ~from ->
               Span.enter Span.broadcast;
               Msgnet.Network.broadcast net ~from ~self:false ();
               Span.leave ();
               sample_pending ())
             ~interval:Experiments.E25_scale.hb_interval ~initial_timeout:42.0
             ~horizon:Experiments.E25_scale.hb_horizon ())
         ());
  sample_pending ();
  Span.wrap Span.sim Dsim.Sim.run sim;
  let hb = Option.get !hb in
  let suspicions =
    Span.wrap Span.sweep
      (fun () ->
        List.length
          (Msgnet.Heartbeat.live_suspicions hb ~among:(Rrfd.Pset.full n)))
      ()
  in
  w.sim_events <- w.sim_events + Dsim.Sim.executed sim;
  w.delivered <- w.delivered + Msgnet.Network.messages_delivered net;
  {
    Experiments.E25_scale.ok = suspicions = 0;
    counters =
      {
        Rrfd.Counters.rounds =
          int_of_float
            (Experiments.E25_scale.hb_horizon
            /. Experiments.E25_scale.hb_interval);
        messages = Msgnet.Network.messages_delivered net;
        detector_queries = n * n;
        predicate_checks = 0;
      };
    checksum = suspicions;
  }

let netscale ~seed ~wrong =
  let n = netscale_n in
  (* The probes rebuild their fixture inside each run (the library builds
     it there); set-up builds one n = 300 heartbeat fixture, so that
     set-up time tracks the network's construction cost. *)
  let sim = Dsim.Sim.create ~seed () in
  let net =
    Msgnet.Network.create ~sim ~n ~deliver:(fun _ ~to_:_ ~from:_ () -> ()) ()
  in
  ignore
    (Msgnet.Heartbeat.create ~sim ~n
       ~send_heartbeat:(fun ~from ->
         Msgnet.Network.broadcast net ~from ~self:false ())
       ~interval:Experiments.E25_scale.hb_interval ~initial_timeout:42.0
       ~horizon:Experiments.E25_scale.hb_horizon ());
  let campaign idx trials run =
    Array.to_list
      (Runtime.Campaign.run ~jobs:1
         ~seed:(Dsim.Rng.derive_seed seed idx)
         ~trials run)
  in
  let all run =
    List.concat
      (List.mapi
         (fun idx (probe, trials) ->
           List.map
             (fun d -> (probe, d))
             (campaign idx trials (run ~idx probe)))
         netscale_probes)
  in
  let render digests =
    String.concat "\n" (List.map (fun (p, d) -> render_digest p d) digests)
  in
  let execs = List.fold_left (fun acc (_, t) -> acc + t) 0 netscale_probes in
  let job () =
    let digests =
      all (fun ~idx:_ probe ~trial:_ ~rng ->
          Experiments.E25_scale.run_probe probe ~rng ~n)
    in
    let bad =
      List.length
        (List.filter (fun (_, d) -> d.Experiments.E25_scale.ok = wrong) digests)
    in
    (render digests, bad)
  in
  let redrive () =
    render
      (all (fun ~idx probe ~trial ~rng ->
           exec_begin ((idx * 1000) + trial);
           let seed = Dsim.Rng.bits30 rng in
           let d =
             if probe = "heartbeat" then heartbeat_redrive ~seed ~n
             else begin
               let d =
                 Span.wrap Span.ct
                   (fun () -> Experiments.E25_scale.ct_trial ~seed ~n)
                   ()
               in
               let c = d.Experiments.E25_scale.counters in
               w.ct_messages <- w.ct_messages + c.Rrfd.Counters.messages;
               (* E25 counts a CT run's rounds as its phases plus one. *)
               w.ct_phases <- w.ct_phases + c.Rrfd.Counters.rounds - 1;
               d
             end
           in
           add_counters d.counters;
           exec_end ();
           d))
  in
  { execs; job; redrive; lattice_ns = 0 }

let workloads =
  [
    { name = "fuzz-reject"; setup = fuzz_reject };
    { name = "fuzz-construct"; setup = fuzz_construct };
    { name = "derive"; setup = derive };
    { name = "netscale"; setup = netscale };
  ]

(* {1 Measurement} *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let k = Array.length a in
  if k = 0 then 0.0
  else if k mod 2 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile a count q =
  if count = 0 then 0.0
  else begin
    let s = Array.sub a 0 count in
    Array.sort compare s;
    let rank = int_of_float (Float.ceil (q *. float_of_int count)) in
    float_of_int s.(max 0 (min (count - 1) (rank - 1)))
  end

let ratio a b = if b = 0.0 then 0.0 else a /. b

let ns_to_s ns = float_of_int ns /. 1e9

(* {1 Host speed}

   The benchmark gets a few cores of a shared host whose speed drifts by
   up to 2x, in spells of seconds to minutes, as other tenants come and
   go.  No statistic of raw times from one run is steady under that, so
   every timed job is bracketed by a fixed reference kernel, and the
   job's time is divided by the mean of the reference times just before
   and just after it.  End-to-end times are these ratios scaled by
   [nominal_s]: the job's time on a host where the kernel takes
   [nominal_s].  The kernel uses no code of this repository, so no
   change to the program moves it.  It does the two kinds of work the
   workloads do: short-lived lists and tuples built, folded and sorted,
   as in the checkers' executions; and a small discrete-event
   simulation, whose boxed events wait in a binary heap about 17 000
   deep, as in the simulated networks.  Either half alone tracks some
   workloads well and others badly; their sum tracks all four.  The
   traced run also reports the raw figures. *)
module Host = struct
  let nominal_s = 0.050

  type event = { at : float; dst : int; src : int }

  let dummy = { at = 0.0; dst = 0; src = 0 }

  (* Short-lived lists and tuples, a table, small sorts. *)
  let table = Array.make 8192 0

  let lists () =
    let acc = ref 0 in
    for i = 1 to 6000 do
      let l = List.init 64 (fun j -> (i + j, (i * j) land 1023)) in
      let l = List.map (fun (a, b) -> (b, a + b)) l in
      acc := List.fold_left (fun s (a, b) -> (s * 31) + a + b) !acc l;
      table.(!acc land 8191) <- i;
      acc := !acc + table.((!acc lsr 3) land 8191);
      let a = Array.init 32 (fun j -> ((j * 7919) + i) land 255) in
      Array.sort compare a;
      acc := !acc + a.(5)
    done;
    !acc

  (* [n] nodes; each beats once a time unit until [horizon] and a beat
     sends an event to every other node, due 0.5 to 5 units later. *)
  let events () =
    let n = 80 and horizon = 8.0 in
    let heap = ref (Array.make 1024 dummy) and size = ref 0 in
    let push e =
      if !size = Array.length !heap then begin
        let bigger = Array.make (2 * !size) dummy in
        Array.blit !heap 0 bigger 0 !size;
        heap := bigger
      end;
      let h = !heap in
      let i = ref !size in
      incr size;
      while !i > 0 && h.((!i - 1) / 2).at > e.at do
        h.(!i) <- h.((!i - 1) / 2);
        i := (!i - 1) / 2
      done;
      h.(!i) <- e
    in
    let pop () =
      let h = !heap in
      let top = h.(0) in
      decr size;
      let last = h.(!size) in
      h.(!size) <- dummy;
      let i = ref 0 and sifting = ref (!size > 0) in
      while !sifting do
        let l = (2 * !i) + 1 in
        if l >= !size then sifting := false
        else begin
          let c =
            if l + 1 < !size && h.(l + 1).at < h.(l).at then l + 1 else l
          in
          if h.(c).at < last.at then begin
            h.(!i) <- h.(c);
            i := c
          end
          else sifting := false
        end
      done;
      if !size > 0 then h.(!i) <- last;
      top
    in
    let state = ref 7 in
    let uniform () =
      state := ((!state * 1103515245) + 12345) land 0x3fffffff;
      float_of_int (!state land 0xffff) /. 65536.0
    in
    let heard = Array.make (n * n) 0.0 in
    for src = 0 to n - 1 do
      push { at = uniform (); dst = -1; src }
    done;
    let delivered = ref 0 in
    while !size > 0 do
      let e = pop () in
      if e.dst < 0 then begin
        for dst = 0 to n - 1 do
          if dst <> e.src then
            push { at = e.at +. 0.5 +. (4.5 *. uniform ()); dst; src = e.src }
        done;
        if e.at +. 1.0 < horizon then push { e with at = e.at +. 1.0 }
      end
      else begin
        heard.((e.dst * n) + e.src) <- e.at;
        incr delivered
      end
    done;
    !delivered

  let kernel () = Sys.opaque_identity (lists () + events ())

  (* From a collected heap, as every timed job starts. *)
  let time () =
    Gc.full_major ();
    let t0 = now () in
    ignore (kernel ());
    now () - t0

  (* Reference times of the run, raw, in ns. *)
  let samples = ref []

  (* The reference time that closed the previous bracket, or -1: samples
     taken back to back share it. *)
  let last = ref (-1)

  let reference () =
    let t = time () in
    samples := t :: !samples;
    last := t;
    t

  (* [run ()] returns a result and the ns it timed; [bracket run]
     returns the result, the raw ns and the ns in reference units. *)
  let bracket run =
    let before = if !last >= 0 then !last else reference () in
    let result, ns = run () in
    let after = reference () in
    let host = float_of_int (before + after) /. 2.0 in
    (result, ns, float_of_int ns /. host *. nominal_s *. 1e9)
end

(* Set-up runs two to five times, each time from a collected heap and
   between two reference runs, and reports the median in reference
   units.  Each sample repeats set-up for at least 10 ms, so the clock's
   resolution does not round the figure.  The first, cold set-up, which
   built [inst], is not a sample. *)
let measure_setup ~inst setup =
  let samples = ref [] and lattices = ref [ inst.lattice_ns ] in
  let budget = 1_000_000_000 and started = now () in
  let count = ref 0 in
  while !count < 2 || (!count < 5 && now () - started < budget) do
    let batch, _, host_ns =
      Host.bracket (fun () ->
          Gc.full_major ();
          let t0 = now () in
          let batch = ref 0 in
          while !batch = 0 || now () - t0 < 10_000_000 do
            lattices := (setup ()).lattice_ns :: !lattices;
            incr batch
          done;
          (!batch, now () - t0))
    in
    samples := (host_ns /. 1e9 /. float_of_int batch) :: !samples;
    incr count
  done;
  (median !samples, median (List.map ns_to_s !lattices))

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

(* Every job's verdict must equal the first one's: the library path is
   deterministic in its seed, and the re-driven path must agree with
   it. *)
let check ~reference ~execs (verdict, failed) =
  tally.attempted <- tally.attempted + execs;
  tally.failed <- tally.failed + failed;
  match !reference with
  | None -> reference := Some verdict
  | Some r ->
    if r <> verdict then begin
      prerr_endline "perfbench: verdict differs from the first job's:";
      prerr_endline ("  first: " ^ r);
      prerr_endline ("  this:  " ^ verdict);
      tally.failed <- tally.failed + 1
    end

(* One library-path job: its result, allocation, raw ns and ns in
   reference units. *)
let timed_job inst =
  let (result, words), raw, host =
    Host.bracket (fun () ->
        Gc.full_major ();
        let w0 = words () in
        let t0 = now () in
        let result = inst.job () in
        let t1 = now () in
        let w1 = words () in
        ((result, w1 - w0), t1 - t0))
  in
  (result, raw, host, words)

let redrive_job inst =
  reset_work ();
  inst.redrive ()

type metric = { m_name : string; unit : string; value : float }

let m m_name unit value = { m_name; unit; value }

let end_to_end ~inst ~setup_s ~walls ~alloc ~heap_words =
  let wall_s = median walls /. 1e9 in
  let execs = float_of_int inst.execs in
  let words_per_exec = median (List.map float_of_int alloc) /. execs in
  [
    m "setup_s" "s" setup_s;
    m "wall_s" "s" wall_s;
    m "execs_per_s" "1/s" (execs /. wall_s);
    m "ns_per_round" "ns" (wall_s *. 1e9 /. float_of_int w.rounds);
    m "ns_per_msg" "ns" (wall_s *. 1e9 /. float_of_int w.messages);
    m "minor_words_per_exec" "words" words_per_exec;
    m "heap_peak_mb" "MB"
      (float_of_int (heap_words * (Sys.word_size / 8)) /. 1e6);
    m "pass_rate" "ratio"
      (1.0 -. ratio (float_of_int tally.failed) (float_of_int tally.attempted));
  ]

(* The per-layer figures of one traced job. *)
let layer_snapshot ~wall_ns =
  let s k = ns_to_s Span.self_ns.(k) in
  let c k = float_of_int Span.calls.(k) in
  let fi = float_of_int in
  let covered = Array.fold_left ( + ) 0 Span.self_ns in
  [
    m "gen.self_s" "s" (s Span.gen);
    m "gen.calls" "count" (fi w.gen_calls);
    m "gen.accept_ratio" "ratio" (ratio (fi w.gen_accepted) (fi w.gen_calls));
    m "gen.minor_words_per_call" "words"
      (ratio (fi w.gen_words) (fi w.gen_calls));
    m "predicate.holds_calls" "count" (c Span.holds);
    m "predicate.holds_s" "s" (s Span.holds);
    m "predicate.check_round_calls" "count" (c Span.check_round);
    m "predicate.check_round_s" "s" (s Span.check_round);
    m "engine.self_s" "s" (s Span.engine);
    m "engine.runs" "count" (fi w.engine_runs);
    m "engine.rounds" "count" (fi w.engine_rounds);
    m "engine.minor_words_per_run" "words"
      (ratio (fi w.engine_words) (fi w.engine_runs));
    m "detector.queries" "count" (fi w.detector_queries);
    m "detector.query_s" "s" (s Span.detector);
    m "detector.build_s" "s" (s Span.detector_build);
    m "property.check_s" "s" (s Span.property);
    m "round_layer.exec_s" "s" (s Span.round_layer);
    m "round_layer.execs" "count" (fi w.rl_execs);
    m "round_layer.messages_per_exec" "count"
      (ratio (fi w.rl_messages) (fi w.rl_execs));
    m "round_layer.minor_words_per_exec" "words"
      (ratio (fi w.rl_words) (fi w.rl_execs));
    m "submodel.query_s" "s" (s Span.submodel);
    m "derive.observe_s" "s" (ns_to_s w.observe_ns);
    m "derive.certify_s" "s" (ns_to_s w.certify_ns);
    m "network.create_s" "s" (s Span.net_create);
    m "network.broadcast_s" "s" (s Span.broadcast);
    m "network.messages_delivered" "count" (fi w.delivered);
    m "sim.self_s" "s" (s Span.sim);
    m "sim.events" "count" (fi w.sim_events);
    m "sim.peak_pending" "count" (fi w.peak_pending);
    m "sim.ns_per_event" "ns"
      (ratio (fi Span.self_ns.(Span.sim)) (fi w.sim_events));
    m "heartbeat.beat_s" "s" (s Span.beat);
    m "heartbeat.sweep_s" "s" (s Span.sweep);
    m "ct.run_s" "s" (s Span.ct);
    m "ct.messages_sent" "count" (fi w.ct_messages);
    m "ct.phases_used" "count" (fi w.ct_phases);
    m "trace.coverage" "ratio" (ratio (fi covered) (fi wall_ns));
  ]

(* Per-metric median over the traced jobs. *)
let median_snapshots snapshots =
  match snapshots with
  | [] -> []
  | first :: _ ->
    List.mapi
      (fun i x ->
        let values = List.map (fun s -> (List.nth s i).value) snapshots in
        { x with value = median values })
      first

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.12g" v else "0"

let emit metrics =
  List.iter
    (fun x ->
      Printf.printf "  %-34s %18s %s\n" x.m_name (json_number x.value) x.unit)
    metrics;
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.m_name
          (json_number x.value) x.unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (tally.failed = 0) tally.attempted tally.failed
    (String.concat ", " fields)

let run ~workload ~seed ~seconds ~trace ~wrong ~spans =
  let wl =
    match List.find_opt (fun wl -> wl.name = workload) workloads with
    | Some wl -> wl
    | None ->
      die "unknown workload %S, expected one of: %s" workload
        (String.concat ", " (List.map (fun wl -> wl.name) workloads))
  in
  let setup () = wl.setup ~seed ~wrong in
  let inst = setup () in
  let reference = ref None in
  let execs = inst.execs in
  (* Warm-up: one untimed job on each path, so that lazy initialisation
     and heap growth stay out of the timed jobs.  The re-drive also
     gives the exact work counts (rounds, messages) the library path
     does not return. *)
  check ~reference ~execs (redrive_job inst, 0);
  check ~reference ~execs (inst.job ());
  (* The heap peak of set-up and the two jobs, read before the reference
     kernel first runs, so that the kernel's own heap stays out of it. *)
  let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  (* A cold first run of the kernel stays out of the samples. *)
  ignore (Host.time ());
  let setup_s, lattice_s = measure_setup ~inst setup in
  let deadline = now () + int_of_float (seconds *. 1e9) in
  let walls = ref [] and raw_walls = ref [] and alloc = ref [] in
  let untraced () =
    let result, raw, wall, words = timed_job inst in
    check ~reference ~execs result;
    walls := wall :: !walls;
    raw_walls := raw :: !raw_walls;
    alloc := words :: !alloc
  in
  Printf.printf "perfbench %s seed=%d trace=%b\n" workload seed trace;
  if not trace then begin
    while List.length !walls < 3 || now () < deadline do
      untraced ()
    done;
    emit (end_to_end ~inst ~setup_s ~walls:!walls ~alloc:!alloc ~heap_words)
  end
  else begin
    let traced_walls = ref [] and snapshots = ref [] in
    while List.length !traced_walls < 2 || now () < deadline do
      untraced ();
      Span.reset_totals ();
      Span.recording := !traced_walls = [];
      let verdict, wall, host =
        Host.bracket (fun () ->
            Gc.full_major ();
            Span.on := true;
            let t0 = now () in
            let verdict = redrive_job inst in
            let wall = now () - t0 in
            Span.on := false;
            (verdict, wall))
      in
      check ~reference ~execs (verdict, 0);
      traced_walls := host :: !traced_walls;
      snapshots := layer_snapshot ~wall_ns:wall :: !snapshots
    done;
    Option.iter Span.write spans;
    let latency_us q = percentile !latencies !latency_count q /. 1e3 in
    emit
      (median_snapshots !snapshots
      @ [
          m "submodel.lattice_s" "s" lattice_s;
          m "trace.overhead_ratio" "ratio"
            (ratio (median !traced_walls) (median !walls));
          m "exec.p50_us" "us" (latency_us 0.50);
          m "exec.p99_us" "us" (latency_us 0.99);
          m "host.reference_s" "s"
            (median (List.map ns_to_s !Host.samples));
          m "wall.raw_s" "s" (median (List.map ns_to_s !raw_walls));
        ])
  end

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and wrong = ref false and spans = ref None in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the workload's inputs derive from");
      ( "--seconds",
        Arg.Set_float seconds,
        "S time budget of the measured jobs" );
      ( "--trace",
        Arg.Set_int trace,
        "0|1 1 reports per-layer metrics from a traced run" );
      ( "--spans",
        Arg.String (fun p -> spans := Some p),
        "FILE write the first traced job's spans here (Chrome trace JSON)" );
      ( "--negative-check",
        Arg.Set wrong,
        " check against deliberately wrong expectations: every job must fail" );
    ]
  in
  Arg.parse spec
    (fun a -> die "unexpected argument %S" a)
    "main.exe --workload NAME [options]";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
    ~wrong:!wrong ~spans:!spans
