module Pset = Rrfd.Pset

type 'out result = {
  execution : 'out Rrfd.Substrate.execution;
  heard_of : Heard_of.t;
  messages_sent : int;
  messages_dropped : int;
  messages_duplicated : int;
  messages_tampered : int;
  virtual_time : float;
}

(* Wire format is [(round, payload, kind)].  [`Retry] marks a periodic
   retransmission of the sender's current round; a receiver already past
   that round answers a [`Retry] with [`Help] copies of its own cached
   emissions, which is what lets a partitioned or lossy run catch up
   after healing.  Only [`Retry] triggers help — help answering help
   would ping-pong forever between two finished processes. *)

(* A round buffer: who has been heard from ([got]) plus their payloads.
   [msgs] is sized lazily from the first payload (there is no dummy 'm);
   slots outside [got] hold stale junk the view never exposes. *)
type 'm buf = {
  mutable msgs : 'm array;
  mutable got : Pset.t;
}

type ('s, 'm) proc = {
  mutable state : 's;
  mutable current_round : int; (* round currently being collected *)
  buffers : (int, 'm buf) Hashtbl.t;
  emitted : (int, 'm) Hashtbl.t; (* own emissions, kept for repair *)
  mutable done_ : bool;
}

let buffer_for proc round =
  match Hashtbl.find_opt proc.buffers round with
  | Some b -> b
  | None ->
    let b = { msgs = [||]; got = Pset.empty } in
    Hashtbl.replace proc.buffers round b;
    b

(* Idempotent per (sender, round): duplicates overwrite with the same
   payload, and tampered payloads keep only the latest delivery — exactly
   the [buffer.(from) <- Some msg] semantics this replaces. *)
let store b ~n ~from msg =
  if Array.length b.msgs = 0 then b.msgs <- Array.make n msg
  else b.msgs.(from) <- msg;
  b.got <- Pset.add from b.got

let run ?(seed = 0) ?min_delay ?max_delay ?(crashes = []) ?adversary
    ?retransmit_every ?(horizon = 600.0) ~n ~f ~rounds ~algorithm () =
  if f < 0 || f >= n then invalid_arg "Round_layer.run: need 0 ≤ f < n";
  if List.length crashes > f then
    invalid_arg "Round_layer.run: more crashes than the resilience bound";
  let adversary = Option.value adversary ~default:Adversary.none in
  (* Repair (periodic retransmission + catch-up help) is on whenever an
     adversary is present — without it a lossy round can starve forever —
     and off otherwise, preserving the fault-free delay stream.  An
     explicit [retransmit_every] forces it on. *)
  let repair_every =
    match retransmit_every with
    | Some e -> Some e
    | None -> if Adversary.is_noop adversary then None else Some 10.0
  in
  let open Rrfd.Algorithm in
  let sim = Dsim.Sim.create ~seed () in
  let heard_rec = Heard_of.create ~n in
  let procs =
    Array.init n (fun i ->
        {
          state = algorithm.init ~n i;
          current_round = 1;
          buffers = Hashtbl.create 16;
          emitted = Hashtbl.create 16;
          done_ = false;
        })
  in
  let network = ref None in
  let net () = Option.get !network in
  let byz = Adversary.byzantine adversary ~n in
  (* Payload-agnostic Byzantine lying: a corrupt or equivocating sender
     replays its own round-[r−1] emission under a round-[r] tag — a
     well-typed payload of the algorithm's own message type, yet (for any
     algorithm whose emissions evolve) not the canonical round-[r]
     content.  Randomness comes from a dedicated stream so the delay
     schedule is bit-identical to the byz-free run with the same seed. *)
  let byz_rng = Dsim.Rng.derive ~seed ~stream:0xB42 in
  let tamper ~behaviour ~now:_ ~from ~to_:_ (round, msg, kind) =
    let { Adversary.equivocate; corrupt; forge = _ } = behaviour in
    match Hashtbl.find_opt procs.(from).emitted (round - 1) with
    | None -> None
    | Some stale ->
        (* Equivocation is a per-receiver coin — broadcast calls the hook
           once per receiver, so some get the truth and some the lie. *)
        let lie = corrupt || (equivocate && Dsim.Rng.bool byz_rng) in
        if lie && stale <> msg then Some (round, stale, kind) else None
  in
  let tamper = if Pset.is_empty byz then None else Some tamper in
  let full = Pset.full n in
  let view = Rrfd.View.create ~n in
  let emit_round i round =
    let msg = algorithm.emit procs.(i).state ~round in
    Hashtbl.replace procs.(i).emitted round msg;
    (* Own emissions are delivered locally at emission time: a process
       always hears itself, so i ∉ D(i,r) by construction and the
       adversary cannot fabricate self-suspicion. *)
    store (buffer_for procs.(i) round) ~n ~from:i msg;
    Network.broadcast (net ()) ~from:i ~self:false (round, msg, `Fresh);
    (* A forging sender also injects round-[r+1] messages it was never
       asked to send — its current payload under a future round tag. *)
    match Adversary.byz_behaviour adversary i with
    | Some { Adversary.forge = true; _ } when round < rounds ->
        Network.broadcast (net ()) ~from:i ~self:false (round + 1, msg, `Fresh)
    | _ -> ()
  in
  (* Complete as many consecutive rounds as the buffers allow. *)
  let rec try_complete i =
    let proc = procs.(i) in
    if not proc.done_ then begin
      let round = proc.current_round in
      let buffer = buffer_for proc round in
      if Pset.cardinal buffer.got >= n - f then begin
        let heard = buffer.got in
        let faulty = Pset.diff full heard in
        (* n - f ≥ 1 senders heard, so [buffer.msgs] is sized. *)
        Rrfd.View.set view ~msgs:buffer.msgs ~faulty;
        proc.state <- algorithm.deliver proc.state ~round ~view;
        (* "Lied to i": the final buffered content differs from the
           sender's canonical cached emission for this round (or the
           sender never canonically emitted it — a forged future-round
           message).  Honest transports only ever carry cached emissions
           (fresh, retry and help all resend [emitted]), so an honest
           sender can never land here: lied ⊆ byzantine is a theorem of
           the construction, which the E24 battery checks as
           lie-attribution soundness. *)
        let lied =
          if Pset.is_empty byz then Pset.empty
          else
            Pset.filter
              (fun j ->
                match Hashtbl.find_opt procs.(j).emitted round with
                | Some canonical -> buffer.msgs.(j) <> canonical
                | None -> true)
              heard
        in
        Heard_of.note heard_rec i ~round ~lied ~heard ();
        Hashtbl.remove proc.buffers round;
        proc.current_round <- round + 1;
        if round + 1 > rounds then proc.done_ <- true
        else begin
          emit_round i (round + 1);
          try_complete i
        end
      end
    end
  in
  let help i ~to_ ~round =
    let proc = procs.(i) in
    for r = round to min proc.current_round rounds do
      match Hashtbl.find_opt proc.emitted r with
      | Some m -> Network.send (net ()) ~from:i ~to_ (r, m, `Help)
      | None -> ()
    done
  in
  let deliver _sim ~to_ ~from (round, msg, kind) =
    let proc = procs.(to_) in
    if round >= proc.current_round && not proc.done_ then begin
      store (buffer_for proc round) ~n ~from msg;
      if round = proc.current_round then try_complete to_
    end
    else if kind = `Retry && repair_every <> None then
      (* The sender is still collecting a round we have already passed:
         resend it (and everything since) our cached emissions. *)
      help to_ ~to_:from ~round
  in
  network :=
    Some
      (Network.create ~sim ~n ?min_delay ?max_delay ~adversary ?tamper ~deliver
         ());
  List.iter
    (fun (p, time) ->
      Dsim.Sim.schedule_at sim ~time (fun _ -> Network.crash (net ()) p))
    crashes;
  (match repair_every with
  | None -> ()
  | Some every ->
      if every <= 0.0 then invalid_arg "Round_layer.run: bad retransmit_every";
      let rec tick i sim =
        let proc = procs.(i) in
        if (not proc.done_) && not (Pset.mem i (Network.crashed (net ())))
        then begin
          (match Hashtbl.find_opt proc.emitted proc.current_round with
          | Some m ->
              Network.broadcast (net ()) ~from:i ~self:false
                (proc.current_round, m, `Retry)
          | None -> ());
          if Dsim.Sim.now sim +. every <= horizon then
            Dsim.Sim.schedule sim ~delay:every (tick i)
        end
      in
      for i = 0 to n - 1 do
        Dsim.Sim.schedule sim ~delay:every (tick i)
      done);
  for i = 0 to n - 1 do
    emit_round i 1;
    try_complete i
  done;
  Dsim.Sim.run sim;
  let completed = Array.init n (Heard_of.completed heard_rec) in
  let decisions = Array.map (fun p -> algorithm.decide p.state) procs in
  let induced = Heard_of.to_history heard_rec in
  let rounds_used = Rrfd.Fault_history.rounds induced in
  let counters =
    (* Physical work, not the abstract replay's: [messages] counts actual
       network deliveries (including retransmissions and catch-up help),
       and no detector is ever queried — the fault history is extracted
       from what the wire did. *)
    Rrfd.Counters.
      {
        rounds = rounds_used;
        messages = Network.messages_delivered (net ());
        detector_queries = 0;
        predicate_checks = 0;
      }
  in
  {
    execution =
      {
        Rrfd.Substrate.substrate = "msgnet";
        decisions;
        (* No global round clock: a decided process reports its last
           completed round. *)
        decision_rounds =
          Array.mapi
            (fun i d -> Option.map (fun _ -> completed.(i)) d)
            decisions;
        rounds_used;
        induced;
        counters;
        violation = None;
        crashed = Network.crashed (net ());
        completed;
        wall_ns = None;
      };
    heard_of = heard_rec;
    messages_sent = Network.messages_sent (net ());
    messages_dropped = Network.messages_dropped (net ());
    messages_duplicated = Network.messages_duplicated (net ());
    messages_tampered = Network.messages_tampered (net ());
    virtual_time = Dsim.Sim.now sim;
  }
