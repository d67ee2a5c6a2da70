(* Per-round detector validation against the hoisted universe set: subset
   and D ≠ S per process, allocation-free ([subset]/[equal] on the
   immediate representation touch no heap). *)
let validate_round ~n ~full sets =
  if Array.length sets <> n then
    invalid_arg "Engine: detector returned wrong number of fault sets";
  for i = 0 to n - 1 do
    let s = Array.unsafe_get sets i in
    if not (Pset.subset s full) then
      invalid_arg "Engine: detector named a process outside the system";
    if Pset.equal s full then
      invalid_arg "Engine: detector declared every process faulty (D = S)"
  done

(* The one inner loop behind both [run] and [states_after].

   Steady-state rounds allocate nothing: the emit buffer and the delivery
   view are created once and repointed per (process, round), the history
   writes into its preallocated arena ([append_in_place] on a backing
   this run exclusively owns), counters accumulate in mutable locals, and
   the optional predicate re-check is incremental ([check_round]) instead
   of a whole-history re-scan.  What still allocates is per run (states,
   decision arrays, the first round's buffer sizing) or belongs to the
   algorithm and detector, which the engine does not control. *)
let exec ~n ~max_rounds ?check ~stop_when_decided ~algorithm ~detector () =
  let open Algorithm in
  (* [create] validates n.  Short runs (the common case: most algorithms
     decide in a few rounds) get a small arena; long runs amortise growth
     by doubling.  Callers that need a growth-free run for allocation
     measurements pass max_rounds ≤ 4. *)
  let history = Fault_history.create ~n ~capacity:(min max_rounds 4) in
  let full = Pset.full n in
  let states = Array.init n (fun i -> algorithm.init ~n i) in
  let decisions = Array.make n None in
  let decision_rounds = Array.make n None in
  let view = View.create ~n in
  let emitted = ref [||] in
  let rounds_done = ref 0 in
  let messages = ref 0 in
  let queries = ref 0 in
  let checks = ref 0 in
  let violation = ref None in
  let record_decisions round =
    for i = 0 to n - 1 do
      if Option.is_none decisions.(i) then begin
        match algorithm.decide states.(i) with
        | None -> ()
        | Some v ->
          decisions.(i) <- Some v;
          decision_rounds.(i) <- Some round
      end
    done
  in
  let all_decided () = Array.for_all Option.is_some decisions in
  let continue = ref true in
  let round = ref 1 in
  while
    !continue && !round <= max_rounds
    && not (stop_when_decided && all_decided ())
  do
    let r = !round in
    (* Emit into the reusable buffer; the first round sizes it from the
       first message (there is no manufactured dummy 'm). *)
    let ems =
      let buf = !emitted in
      if Array.length buf = n then begin
        for i = 0 to n - 1 do buf.(i) <- algorithm.emit states.(i) ~round:r done;
        buf
      end
      else begin
        let m0 = algorithm.emit states.(0) ~round:r in
        let buf = Array.make n m0 in
        for i = 1 to n - 1 do buf.(i) <- algorithm.emit states.(i) ~round:r done;
        emitted := buf;
        buf
      end
    in
    let fault_sets = Detector.next detector history in
    incr queries;
    validate_round ~n ~full fault_sets;
    ignore (Fault_history.append_in_place history fault_sets : Fault_history.t);
    for i = 0 to n - 1 do
      let faulty = Array.unsafe_get fault_sets i in
      messages := !messages + (n - Pset.cardinal faulty);
      (* unsafe: [validate_round] above checked every set this round. *)
      View.unsafe_set view ~msgs:ems ~faulty;
      states.(i) <- algorithm.deliver states.(i) ~round:r ~view
    done;
    record_decisions r;
    rounds_done := r;
    (match check with
    | None -> ()
    | Some p -> (
      incr checks;
      match Predicate.check_round p history ~round:r with
      | Some _ as v ->
        violation := v;
        continue := false
      | None -> ()));
    round := r + 1
  done;
  let counters =
    Counters.
      {
        rounds = !rounds_done;
        messages = !messages;
        detector_queries = !queries;
        predicate_checks = !checks;
      }
  in
  let rounds_used =
    match !violation with Some _ -> !rounds_done | None -> !round - 1
  in
  ( states,
    {
      Substrate.substrate = "engine";
      decisions;
      decision_rounds;
      rounds_used;
      induced = history;
      counters;
      violation = !violation;
      crashed = Pset.empty;
      completed = Array.make n rounds_used;
      wall_ns = None;
    } )

let run ~n ?(max_rounds = 64) ?check ?(stop_when_decided = true) ~algorithm
    ~detector () =
  snd (exec ~n ~max_rounds ?check ~stop_when_decided ~algorithm ~detector ())

let states_after ~n ~rounds ~algorithm ~detector () =
  let states, ex =
    exec ~n ~max_rounds:rounds ~stop_when_decided:false ~algorithm ~detector ()
  in
  (states, ex.Substrate.induced)

type 'out differential = {
  replayed : 'out Substrate.execution;
  divergence : Proc.t option;
}

(* The pinned replay: exactly the history's rounds, no early stop, so the
   replay's induced history is the input history bit-for-bit.  Decisions
   are compared against [decide] of the final states, which is the first
   decision for irrevocable algorithms and what the asynchronous round
   layer reports for any algorithm. *)
let differential ?(equal = Stdlib.( = )) ~algorithm
    (ex : _ Substrate.execution) =
  let history = ex.induced in
  let n = Fault_history.n history in
  let states, replayed =
    exec ~n ~max_rounds:(Fault_history.rounds history)
      ~stop_when_decided:false ~algorithm
      ~detector:(Detector.of_history history) ()
  in
  let agrees i =
    match (ex.decisions.(i), algorithm.Algorithm.decide states.(i)) with
    | None, None -> true
    | Some x, Some y -> equal x y
    | _ -> false
  in
  let divergence =
    List.find_opt
      (fun i -> Substrate.comparable ex i && not (agrees i))
      (List.init n Fun.id)
  in
  { replayed; divergence }
