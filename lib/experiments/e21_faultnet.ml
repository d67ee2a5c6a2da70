(* E21 — fault-injection adversaries and the heard-of bridge.

   An adversary grid (drop / duplicate / spike / reorder / partition and a
   composite) damages the asynchronous network; each trial extracts the
   induced fault history from the round layer, classifies it against the
   paper's predicate ladder P1–P5, replays it through the abstract engine
   (decisions must match bit-for-bit), and probes the three protocol
   stacks — heartbeat suspicions, Chandra–Toueg consensus, the ABD
   register — under the same policy.

   Trials run as a Runtime.Campaign: each draws its RNG from
   (seed, policy, trial), so the table — and the per-trial history
   artifacts run_detailed exposes for the -j smoke gate — are identical
   at every worker count. *)

let grid =
  [
    "none";
    "drop:p=10";
    "drop:p=30";
    "dup:p=25,copies=2";
    "spike:p=20,factor=8";
    "reorder:p=30,window=15";
    "partition:at=5,heal=45,left=2";
    "drop:p=15+dup:p=15";
  ]

type trial_obs = {
  compact : string;
  held : (string * bool) list;
  matched : bool;
  all_completed : bool;
  hb_suspicions : int;
  ct_safe : bool;
  ct_undecided : int;
  abd_atomic : bool;
  counters : Rrfd.Counters.t;
}

(* Heartbeats under the adversary: let emissions run to the horizon, then
   count live-live suspicions left at drain (informational — transient
   suspicion is exactly what lossy links cause; the dedicated convergence
   test drives this with controlled parameters). *)
let heartbeat_suspicions ~seed ~adversary ~n =
  let sim = Dsim.Sim.create ~seed () in
  let hb = ref None in
  let deliver _ ~to_ ~from () =
    Msgnet.Heartbeat.beat (Option.get !hb) ~at:to_ ~from
  in
  let net = Msgnet.Network.create ~sim ~n ~adversary ~deliver () in
  hb :=
    Some
      (Msgnet.Heartbeat.create ~sim ~n
         ~send_heartbeat:(fun ~from ->
           Msgnet.Network.broadcast net ~from ~self:false ())
         ~interval:4.0 ~initial_timeout:12.0 ~timeout_increment:8.0
         ~horizon:240.0 ());
  Dsim.Sim.run sim;
  List.length
    (Msgnet.Heartbeat.live_suspicions (Option.get !hb)
       ~among:(Rrfd.Pset.full n))

(* One writer chaining two writes, staggered readers; atomicity of the
   completed operations must survive every policy. *)
let abd_atomic ~seed ~adversary ~n ~f =
  let sim = Dsim.Sim.create ~seed () in
  let reg = Msgnet.Abd.create ~sim ~n ~f ~writer:0 ~adversary () in
  Msgnet.Abd.write reg ~value:1 ~on_done:(fun () ->
      Msgnet.Abd.write reg ~value:2 ~on_done:(fun () -> ()));
  List.iteri
    (fun i p ->
      Dsim.Sim.schedule sim
        ~delay:(4.0 +. (7.0 *. float_of_int i))
        (fun _ -> Msgnet.Abd.read reg ~proc:p ~on_done:(fun _ -> ())))
    [ 1; 2; 3; 4 ];
  Dsim.Sim.run sim;
  Msgnet.Abd.History.check_atomic (Msgnet.Abd.History.events reg) = None

let run_trial ~adversary ~n ~f ~rounds ~rng =
  let s_rl = Dsim.Rng.bits30 rng in
  let s_hb = Dsim.Rng.bits30 rng in
  let s_ct = Dsim.Rng.bits30 rng in
  let s_abd = Dsim.Rng.bits30 rng in
  let algorithm = Rrfd.Full_info.algorithm ~inputs:(Tasks.Inputs.distinct n) in
  let ex =
    (Msgnet.Round_layer.run ~seed:s_rl ~adversary ~n ~f ~rounds ~algorithm ())
      .execution
  in
  let d = Rrfd.Engine.differential ~equal:Rrfd.Full_info.equal ~algorithm ex in
  let induced = ex.induced in
  let ct =
    Msgnet.Ct_consensus.run ~seed:s_ct ~adversary ~n ~f
      ~inputs:(Array.init n (fun i -> i mod 3))
      ()
  in
  let ct_safe =
    Tasks.Agreement.check
      ~allow_undecided:(Rrfd.Pset.full n)
      ~k:1
      ~inputs:(Array.init n (fun i -> i mod 3))
      ct.Msgnet.Ct_consensus.decisions
    = None
  in
  let ct_undecided =
    Array.fold_left
      (fun c dec -> if dec = None then c + 1 else c)
      0 ct.Msgnet.Ct_consensus.decisions
  in
  {
    compact = Rrfd.Fault_history.to_string_compact induced;
    held = Msgnet.Heard_of.classify ~f induced;
    matched = d.divergence = None;
    all_completed = Array.for_all (fun c -> c = rounds) ex.completed;
    hb_suspicions = heartbeat_suspicions ~seed:s_hb ~adversary ~n;
    ct_safe;
    ct_undecided = ct_undecided;
    abd_atomic = abd_atomic ~seed:s_abd ~adversary ~n ~f;
    counters =
      {
        Rrfd.Counters.rounds = Rrfd.Fault_history.rounds induced;
        messages = ex.counters.messages;
        detector_queries = 0;
        predicate_checks = List.length (Msgnet.Heard_of.paper_predicates ~f);
      };
  }

let run_detailed ?(seed = 21) ?(trials = 40) ?jobs () =
  let n = 5 and f = 2 and rounds = 4 in
  let work = ref [] in
  let histories = ref [] in
  let rows =
    List.mapi
      (fun idx spec ->
        let adversary =
          match Msgnet.Adversary.of_spec spec with
          | Ok a -> a
          | Error e -> invalid_arg ("E21: " ^ e)
        in
        let obs =
          Runtime.Campaign.run ?jobs
            ~seed:(Dsim.Rng.derive_seed seed idx)
            ~trials
            (fun ~trial:_ ~rng -> run_trial ~adversary ~n ~f ~rounds ~rng)
        in
        work := Array.map (fun o -> o.counters) obs :: !work;
        histories :=
          (spec, Array.to_list (Array.map (fun o -> o.compact) obs))
          :: !histories;
        let count p = Array.fold_left (fun c o -> if p o then c + 1 else c) 0 obs in
        let sum g = Array.fold_left (fun c o -> c + g o) 0 obs in
        let held name = count (fun o -> List.assoc name o.held) in
        let p3 = held "P3" in
        let replay_ok = count (fun o -> o.matched) = trials in
        let ct_safe = count (fun o -> o.ct_safe) = trials in
        let abd_ok = count (fun o -> o.abd_atomic) = trials in
        [
          spec;
          Table.cell_int trials;
          Table.cell_int (held "P1");
          Table.cell_int (held "P2");
          Table.cell_int p3;
          Table.cell_int (held "P4");
          Table.cell_int (held "P5");
          Table.cell_bool replay_ok;
          Table.cell_int (sum (fun o -> if o.all_completed then 0 else 1));
          Table.cell_int (sum (fun o -> o.hb_suspicions));
          Table.cell_int (sum (fun o -> o.ct_undecided));
          Table.cell_bool ct_safe;
          Table.cell_bool abd_ok;
          Table.cell_bool (p3 = trials && replay_ok && ct_safe && abd_ok);
        ])
      grid
  in
  let table =
    {
      Table.id = "E21";
      title = "fault-injection adversaries and the heard-of bridge";
      claim =
        "every asynchronous network adversary induces a fault history: the \
         round layer keeps P3 = (|D| ≤ f) invariant under drop, \
         duplication, delay spikes, reorder and healing partitions, and \
         replaying the extracted heard-of history through the abstract \
         engine reproduces the network run's decisions bit-for-bit";
      header =
        [
          "adversary"; "trials"; "P1"; "P2"; "P3"; "P4"; "P5"; "replay";
          "stalled"; "hb-susp"; "ct-undec"; "ct-safe"; "abd-atomic"; "ok";
        ];
      rows;
      notes =
        [
          "P1–P5 count trials whose extracted history satisfied the \
           predicate (n=5, f=2, 4 rounds, full-information algorithm)";
          "replay = engine decisions match the network's for every trial; \
           stalled/hb-susp/ct-undec are informational totals";
          "ct-safe/abd-atomic gate safety only — a policy may slow \
           consensus or the register, never break agreement or atomicity";
        ];
      counters = Table.counter_stats (Array.concat (List.rev !work));
    }
  in
  (table, List.rev !histories)

(* The grid artifact's detail: every trial's extracted history, per spec. *)
let detail_json histories =
  let str s = Report.Json.String s in
  ( "histories",
    Report.Json.Obj
      (List.map
         (fun (spec, hs) -> (spec, Report.Json.List (List.map str hs)))
         histories) )

let run ?seed ?trials ?jobs () = fst (run_detailed ?seed ?trials ?jobs ())
