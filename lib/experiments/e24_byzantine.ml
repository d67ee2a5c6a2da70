(* E24 — Byzantine round-machines with fork accountability.

   A violation-rate × detection-completeness grid over Byz adversary
   specs.  Each row drives three probes per trial:

   - the accountable quorum vote (Check.Byz_check over
     Msgnet.Accountability): how often do the row's equivocators fork
     two honest deciders, and does the signed-log audit then convict
     ≥ f+1 of them without ever naming an honest process?
   - the round layer under the same spec string: content lies must land
     in the heard-of record's "lied" component attributed only to
     Byzantine members (lie-attribution soundness), and the lie history
     must leave an honest kernel of n − m processes clean;
   - Chandra–Toueg under the same spec: CT trusts a Decide on receipt,
     so corrupt members fork it outright — the table reports that
     violation rate and checks the CT equivocation audit stays sound.

   Trials run as a Runtime.Campaign keyed by (seed, row, trial), so the
   table is bit-identical at every -j. *)

module Byz = Check.Byz_check
module Acc = Msgnet.Accountability

type row_spec = {
  label : string; (* an Adversary.of_spec string — rows read like specs *)
  n : int;
  f : int;
  m : int; (* Byzantine member count, 0..m-1 *)
  forge : bool;
}

let grid =
  [
    { label = "byz:m=0"; n = 4; f = 1; m = 0; forge = false };
    { label = "byz:m=1,equiv=1"; n = 4; f = 1; m = 1; forge = false };
    { label = "byz:m=1,corrupt=1"; n = 4; f = 1; m = 1; forge = false };
    { label = "byz:m=2,equiv=1"; n = 4; f = 1; m = 2; forge = false };
    { label = "byz:m=2,equiv=1,forge=1"; n = 4; f = 1; m = 2; forge = true };
    { label = "byz:m=3,equiv=1"; n = 7; f = 2; m = 3; forge = false };
  ]

type trial_obs = {
  vote_forked : bool;
  vote_sound : bool;
  vote_complete : bool; (* vacuously true without a fork *)
  accused : int;
  lied_sound : bool;
  kernel : bool;
  tampered : int;
  ct_violated : bool;
  ct_sound : bool;
  ct_undecided : int;
  counters : Rrfd.Counters.t;
}

let run_trial row ~adversary ~rng =
  let { n; f; m; forge; _ } = row in
  let s_vote = Dsim.Rng.bits30 rng in
  let s_rl = Dsim.Rng.bits30 rng in
  let s_ct = Dsim.Rng.bits30 rng in
  (* Probe 1: the accountable quorum vote.  Half the trials use the
     split-brain plan — every member echoes each receiver's own input,
     the strongest fork driver in the strategy space — so the m > f
     rows actually exercise the completeness gate; the rest draw random
     lying plans like the fuzzer. *)
  let witness =
    let rng = Dsim.Rng.create s_vote in
    if m >= 1 && Dsim.Rng.bool rng then begin
      let inputs = Byz.binary_inputs n in
      let strategies = Array.make n None in
      for i = 0 to m - 1 do
        strategies.(i) <- Some { Acc.votes = Array.copy inputs; cert = None }
      done;
      { Byz.n; f; seed = Dsim.Rng.bits30 rng; inputs; strategies }
    end
    else Byz.derive_witness ~n ~f ~byz:m ~forge ~rng
  in
  let outcome = Byz.run_witness witness in
  let verdict = Acc.check ~f outcome in
  let vote_forked = outcome.Acc.fork <> None in
  let vote_sound = match verdict with Acc.Unsound _ -> false | _ -> true in
  let vote_complete =
    match verdict with Acc.Incomplete _ -> false | _ -> true
  in
  (* Probe 2: the round layer under the row's spec string. *)
  let rounds = 3 in
  let rl =
    Msgnet.Round_layer.run ~seed:s_rl ~adversary ~n ~f ~rounds
      ~algorithm:(Rrfd.Full_info.algorithm ~inputs:(Tasks.Inputs.distinct n))
      ()
  in
  let members = Msgnet.Adversary.byzantine adversary ~n in
  let lie_history = Msgnet.Heard_of.to_lie_history rl.heard_of in
  let lied_sound =
    (* Every lied-about sender is an adversary-marked member. *)
    Rrfd.Pset.subset
      (Rrfd.Fault_history.cumulative_union lie_history)
      members
  in
  let kernel =
    Rrfd.Predicate.holds
      (Rrfd.Predicate.eventual_honest_kernel ~k:(n - m))
      lie_history
  in
  (* Probe 3: CT consensus, which trusts Decide on receipt. *)
  let ct_inputs = Array.init n (fun i -> i mod 2) in
  let ct =
    Msgnet.Ct_consensus.run ~seed:s_ct ~adversary ~n ~f ~inputs:ct_inputs
      ~horizon:240.0 ()
  in
  let honest_decisions =
    List.filter_map
      (fun i ->
        if Rrfd.Pset.mem i members then None else ct.Msgnet.Ct_consensus.decisions.(i))
      (List.init n Fun.id)
  in
  let ct_violated =
    match honest_decisions with
    | [] -> false
    | v :: rest -> List.exists (fun w -> w <> v) rest
  in
  let ct_sound = Rrfd.Pset.subset ct.Msgnet.Ct_consensus.accused members in
  let ct_undecided =
    Array.fold_left
      (fun c d -> if d = None then c + 1 else c)
      0 ct.Msgnet.Ct_consensus.decisions
  in
  {
    vote_forked;
    vote_sound;
    vote_complete;
    accused = Rrfd.Pset.cardinal outcome.Acc.accused;
    lied_sound;
    kernel;
    tampered =
      outcome.Acc.messages_tampered
      + rl.messages_tampered
      + ct.Msgnet.Ct_consensus.messages_tampered;
    ct_violated;
    ct_sound;
    ct_undecided;
    counters =
      {
        Rrfd.Counters.rounds = rl.execution.rounds_used;
        messages = rl.execution.counters.messages;
        detector_queries = 0;
        predicate_checks = 1;
      };
  }

type row_digest = {
  spec : string;
  trials : int;
  vote_forks : int;
  min_accused_on_fork : int option;
  vote_sound_all : bool;
  vote_complete_all : bool;
  lied_sound_all : bool;
  kernel_all : bool;
  tampered_total : int;
  ct_violations : int;
  ct_sound_all : bool;
  ct_undecided_total : int;
}

let run_detailed ?(seed = 24) ?(trials = 50) ?jobs () =
  let work = ref [] in
  let digests = ref [] in
  let rows =
    List.mapi
      (fun idx row ->
        let adversary =
          match Msgnet.Adversary.of_spec row.label with
          | Ok a -> a
          | Error e -> invalid_arg ("E24: " ^ e)
        in
        let obs =
          Runtime.Campaign.run ?jobs
            ~seed:(Dsim.Rng.derive_seed seed idx)
            ~trials
            (fun ~trial:_ ~rng -> run_trial row ~adversary ~rng)
        in
        work := Array.map (fun o -> o.counters) obs :: !work;
        let count p = Array.fold_left (fun c o -> if p o then c + 1 else c) 0 obs in
        let sum g = Array.fold_left (fun c o -> c + g o) 0 obs in
        let vote_forks = count (fun o -> o.vote_forked) in
        let min_accused_on_fork =
          Array.fold_left
            (fun acc o ->
              if not o.vote_forked then acc
              else
                match acc with
                | None -> Some o.accused
                | Some m -> Some (min m o.accused))
            None obs
        in
        let vote_sound_all = count (fun o -> o.vote_sound) = trials in
        let vote_complete_all = count (fun o -> o.vote_complete) = trials in
        let lied_sound_all = count (fun o -> o.lied_sound) = trials in
        let kernel_all = count (fun o -> o.kernel) = trials in
        let ct_violations = count (fun o -> o.ct_violated) in
        let ct_sound_all = count (fun o -> o.ct_sound) = trials in
        let digest =
          {
            spec = row.label;
            trials;
            vote_forks;
            min_accused_on_fork;
            vote_sound_all;
            vote_complete_all;
            lied_sound_all;
            kernel_all;
            tampered_total = sum (fun o -> o.tampered);
            ct_violations;
            ct_sound_all;
            ct_undecided_total = sum (fun o -> o.ct_undecided);
          }
        in
        digests := digest :: !digests;
        (* The tentpole's theorem, as a per-row gate: accusations are
           always sound, every vote fork convicts ≥ f+1, lies are always
           attributed to members, and a below-threshold row (m ≤ f)
           never forks the vote at all. *)
        let ok =
          vote_sound_all && vote_complete_all && lied_sound_all && kernel_all
          && ct_sound_all
          && ((row.m > row.f) || vote_forks = 0)
        in
        [
          row.label;
          Printf.sprintf "%d/%d/%d" row.n row.f row.m;
          Table.cell_int trials;
          Table.cell_int vote_forks;
          (match min_accused_on_fork with
          | None -> "-"
          | Some m -> Table.cell_int m);
          Table.cell_bool vote_sound_all;
          Table.cell_bool vote_complete_all;
          Table.cell_bool lied_sound_all;
          Table.cell_bool kernel_all;
          Table.cell_int (sum (fun o -> o.tampered));
          Table.cell_int ct_violations;
          Table.cell_bool ct_sound_all;
          Table.cell_int (sum (fun o -> o.ct_undecided));
          Table.cell_bool ok;
        ])
      grid
  in
  let table =
    {
      Table.id = "E24";
      title = "Byzantine round-machines and fork accountability";
      claim =
        "content lies are attributable: under byz:* adversaries the \
         heard-of record splits \"silent toward p\" from \"lied to p\" \
         with lies only ever attributed to Byzantine members, and when \
         > n/3 equivocators fork the accountable quorum vote, replaying \
         the signed send log convicts ≥ f+1 of them (equivocation or \
         phantom quorum) without ever accusing an honest process — \
         while CT consensus, which trusts a Decide on receipt, forks \
         under a single corrupt member";
      header =
        [
          "adversary"; "n/f/m"; "trials"; "forks"; "min-acc"; "sound";
          "complete"; "lied⊆byz"; "kernel"; "tampered"; "ct-viol";
          "ct-sound"; "ct-undec"; "ok";
        ];
      rows;
      notes =
        [
          "forks = trials where two honest processes decided differently \
           in the accountable quorum vote; min-acc = fewest processes \
           convicted by the audit across those forks (must be ≥ f+1)";
          "sound/complete gate the audit two-sidedly; lied⊆byz and \
           kernel gate the round layer's lie extraction (lies attributed \
           only to members; n−m honest processes stay clean)";
          "ct-viol counts CT agreement violations — nonzero under \
           corrupt members by design (CT trusts Decide); ct-sound gates \
           its equivocation audit; m ≤ f rows must show zero vote forks";
        ];
      counters = Table.counter_stats (Array.concat (List.rev !work));
    }
  in
  (table, List.rev !digests)

(* The grid artifact's detail: one digest per row. *)
let detail_json digests =
  let module Json = Report.Json in
  let num i = Json.Number (float_of_int i) in
  let digest_json d =
    Json.Obj
      [
        ("spec", Json.String d.spec);
        ("trials", num d.trials);
        ("vote_forks", num d.vote_forks);
        ( "min_accused_on_fork",
          match d.min_accused_on_fork with None -> Json.Null | Some m -> num m
        );
        ("vote_sound_all", Json.Bool d.vote_sound_all);
        ("vote_complete_all", Json.Bool d.vote_complete_all);
        ("lied_sound_all", Json.Bool d.lied_sound_all);
        ("kernel_all", Json.Bool d.kernel_all);
        ("tampered_total", num d.tampered_total);
        ("ct_violations", num d.ct_violations);
        ("ct_sound_all", Json.Bool d.ct_sound_all);
        ("ct_undecided_total", num d.ct_undecided_total);
      ]
  in
  ("digests", Json.List (List.map digest_json digests))

let run ?seed ?trials ?jobs () = fst (run_detailed ?seed ?trials ?jobs ())
