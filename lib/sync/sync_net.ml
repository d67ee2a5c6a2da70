module Pset = Rrfd.Pset

let run ~n ~rounds ~pattern ~algorithm ?check ?(stop_when_decided = true) () =
  if Faults.n pattern <> n then invalid_arg "Sync_net.run: pattern size mismatch";
  let open Rrfd.Algorithm in
  let states = Array.init n (fun i -> algorithm.init ~n i) in
  let decisions = Array.make n None in
  let decision_rounds = Array.make n None in
  let completed = Array.make n 0 in
  let all = Pset.full n in
  (* A process crashing at round r still delivers round r (only its sends
     are cut short), so it completed r rounds. *)
  let record_round round alive =
    Pset.iter
      (fun i ->
        completed.(i) <- round;
        if Option.is_none decisions.(i) then
          match algorithm.decide states.(i) with
          | None -> ()
          | Some v ->
            decisions.(i) <- Some v;
            decision_rounds.(i) <- Some round)
      alive
  in
  let view = Rrfd.View.create ~n in
  let msgs = ref [||] in
  let rec loop round history counters violation =
    let alive = Pset.diff all (Faults.crashed_before pattern ~round) in
    let done_ =
      round > rounds
      || (stop_when_decided
         && Pset.for_all (fun i -> Option.is_some decisions.(i)) alive)
    in
    if done_ then
      {
        Rrfd.Substrate.substrate = "sync";
        decisions;
        decision_rounds;
        rounds_used = round - 1;
        induced = history;
        counters;
        violation;
        crashed = Pset.diff all alive;
        completed;
        wall_ns = None;
      }
    else begin
      (* Emissions go into a reusable buffer; slots of crashed processes
         keep stale contents, but a dead sender is in every live
         receiver's fault set, so the view never reads them. *)
      let buf =
        if Array.length !msgs = n then begin
          let b = !msgs in
          Pset.iter (fun i -> b.(i) <- algorithm.emit states.(i) ~round) alive;
          b
        end
        else
          match Pset.min_elt alive with
          | None -> [||] (* nobody alive: nobody delivers either *)
          | Some i0 ->
            let b = Array.make n (algorithm.emit states.(i0) ~round) in
            Pset.iter
              (fun i ->
                if not (Rrfd.Proc.equal i i0) then
                  b.(i) <- algorithm.emit states.(i) ~round)
              alive;
            msgs := b;
            b
      in
      let fault_sets =
        Array.init n (fun i ->
            Pset.filter
              (fun s ->
                (not (Rrfd.Proc.equal s i))
                && not
                     (Pset.mem s alive
                     && Faults.delivered pattern ~round ~sender:s ~receiver:i))
              all)
      in
      let history = Rrfd.Fault_history.append history fault_sets in
      let delivered = ref 0 in
      Pset.iter
        (fun i ->
          let faulty = fault_sets.(i) in
          delivered := !delivered + (n - Pset.cardinal faulty);
          (* A process's own slot is always readable: i ∉ D(i,r) here. *)
          Rrfd.View.set view ~msgs:buf ~faulty;
          states.(i) <- algorithm.deliver states.(i) ~round ~view)
        alive;
      record_round round alive;
      let counters =
        Rrfd.Counters.
          {
            rounds = counters.rounds + 1;
            messages = counters.messages + !delivered;
            detector_queries = counters.detector_queries;
            predicate_checks =
              (counters.predicate_checks
              + if Option.is_some check then 1 else 0);
          }
      in
      (* The check observes the run without altering it: the earliest
         violation is recorded but lock-step execution continues, so the
         induced history is the same with and without a check. *)
      let violation =
        match violation with
        | Some _ -> violation
        | None ->
          Option.bind check (fun p ->
              Rrfd.Predicate.check_round p history ~round)
      in
      loop (round + 1) history counters violation
    end
  in
  loop 1 (Rrfd.Fault_history.empty ~n) Rrfd.Counters.zero None
