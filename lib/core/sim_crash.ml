type 'm proposal = Faulty | Alive of 'm

type 'm vote_msg = {
  vote : 'm proposal Adopt_commit.vote;
  witness : 'm option;
      (* An alive value for the target seen by the voter, carried so that a
         process resolving to "adopt faulty" can still deliver the target's
         round value (see the .mli implementation note). *)
}

type 'm message =
  | Write of 'm
  | Proposals of 'm proposal array
  | Votes of 'm vote_msg array

type ('s, 'm) state = {
  me : Proc.t;
  n : int;
  sync_state : 's;
  sync_round : int; (* simulated round currently being executed *)
  failed : Pset.t; (* F_i *)
  committed : Pset.t list; (* D_sync(i, ·), most recent first *)
  self_crashed : bool;
  missing_witness_count : int;
  phase1_values : 'm option array;
  my_proposals : 'm proposal array;
  my_votes : 'm vote_msg array;
}

let phase ~round = ((round - 1) mod 3) + 1

let async_rounds ~sync_rounds = 3 * sync_rounds

let sync_rounds_completed s = s.sync_round - 1

let self_crashed s = s.self_crashed

let missing_witnesses s = s.missing_witness_count

let dummy_vote = { vote = Adopt_commit.Adopt_vote Faulty; witness = None }

(* Messages actually received this round, plus the process's own (known
   through local state even when it is told it was late). *)
let seen_messages ~me ~own view =
  let items = List.rev (View.fold (fun _ m acc -> m :: acc) view []) in
  if Pset.mem me (View.faulty view) then own :: items else items

let alive_value = function Alive v -> Some v | Faulty -> None

let algorithm ~sync =
  let open Algorithm in
  let deliver_phase1 s ~view =
    let values =
      Array.map
        (Option.map (function Write v -> v | Proposals _ | Votes _ -> assert false))
        (View.to_option_array view)
    in
    if Option.is_none values.(s.me) then
      values.(s.me) <- Some (sync.emit s.sync_state ~round:s.sync_round);
    let failed = Pset.union s.failed (Pset.remove s.me (View.faulty view)) in
    let my_proposals =
      Array.init s.n (fun j ->
          if Pset.mem j failed then Faulty
          else
            match values.(j) with
            | Some v -> Alive v
            | None -> Faulty)
    in
    { s with failed; phase1_values = values; my_proposals }
  in
  let deliver_phase2 s ~view =
    let arrays =
      seen_messages ~me:s.me ~own:(Proposals s.my_proposals) view
      |> List.map (function Proposals a -> a | Write _ | Votes _ -> assert false)
    in
    let my_votes =
      Array.init s.n (fun j ->
          let seen = List.map (fun a -> a.(j)) arrays in
          let vote = Adopt_commit.propose ~own:s.my_proposals.(j) ~seen in
          let witness = List.find_map alive_value seen in
          { vote; witness })
    in
    { s with my_votes }
  in
  let deliver_phase3 s ~view =
    let arrays =
      seen_messages ~me:s.me ~own:(Votes s.my_votes) view
      |> List.map (function Votes a -> a | Write _ | Proposals _ -> assert false)
    in
    let committed_now = ref Pset.empty in
    let failed = ref s.failed in
    let missing = ref s.missing_witness_count in
    let round_values =
      Array.init s.n (fun j ->
          let seen = List.map (fun a -> a.(j)) arrays in
          let outcome =
            Adopt_commit.resolve ~own:s.my_proposals.(j)
              ~seen:(List.map (fun vm -> vm.vote) seen)
          in
          match outcome with
          | Adopt_commit.Commit (Alive v) | Adopt_commit.Adopt (Alive v) -> Some v
          | Adopt_commit.Commit Faulty ->
            committed_now := Pset.add j !committed_now;
            failed := Pset.add j !failed;
            None
          | Adopt_commit.Adopt Faulty -> (
            failed := Pset.add j !failed;
            (* The target is suspected but not crashed this round: deliver
               its value from an alive witness. *)
            match List.find_map (fun vm -> vm.witness) seen with
            | Some v -> Some v
            | None ->
              incr missing;
              committed_now := Pset.add j !committed_now;
              None))
    in
    (* [round_values.(j)] is [None] exactly when [j] was committed faulty
       this simulated round, so the compat constructor's invariant holds. *)
    let sync_view = View.of_option_array round_values ~faulty:!committed_now in
    let sync_state =
      sync.deliver s.sync_state ~round:s.sync_round ~view:sync_view
    in
    {
      s with
      sync_state;
      sync_round = s.sync_round + 1;
      failed = !failed;
      committed = !committed_now :: s.committed;
      self_crashed = s.self_crashed || Pset.mem s.me !committed_now;
      missing_witness_count = !missing;
    }
  in
  {
    name = "sim-crash(" ^ sync.name ^ ")";
    init =
      (fun ~n p ->
        {
          me = p;
          n;
          sync_state = sync.init ~n p;
          sync_round = 1;
          failed = Pset.empty;
          committed = [];
          self_crashed = false;
          missing_witness_count = 0;
          phase1_values = Array.make n None;
          my_proposals = Array.make n Faulty;
          my_votes = Array.make n dummy_vote;
        });
    emit =
      (fun s ~round ->
        match phase ~round with
        | 1 -> Write (sync.emit s.sync_state ~round:s.sync_round)
        | 2 -> Proposals s.my_proposals
        | _ -> Votes s.my_votes);
    deliver =
      (fun s ~round ~view ->
        match phase ~round with
        | 1 -> deliver_phase1 s ~view
        | 2 -> deliver_phase2 s ~view
        | _ -> deliver_phase3 s ~view);
    decide = (fun s -> if s.self_crashed then None else sync.decide s.sync_state);
  }

let simulated_history states =
  let n = Array.length states in
  if n = 0 then invalid_arg "Sim_crash.simulated_history: no states";
  let rounds = sync_rounds_completed states.(0) in
  Array.iter
    (fun s ->
      if sync_rounds_completed s <> rounds then
        invalid_arg "Sim_crash.simulated_history: uneven progress")
    states;
  let per_round = Array.map (fun s -> Array.of_list (List.rev s.committed)) states in
  let round_sets r = Array.init n (fun i -> per_round.(i).(r)) in
  Fault_history.of_rounds ~n (List.init rounds round_sets)

let check_simulated ~f ~k states =
  let history = simulated_history states in
  let n = Fault_history.n history in
  let rounds = Fault_history.rounds history in
  (* A process is "live at round r" if it never committed itself faulty at
     any round ≤ r; crashed processes' later views are unconstrained. *)
  let self_crash_round = Array.make n max_int in
  for r = 1 to rounds do
    for i = 0 to n - 1 do
      if
        self_crash_round.(i) = max_int
        && Pset.mem i (Fault_history.d history ~proc:i ~round:r)
      then self_crash_round.(i) <- r
    done
  done;
  let live i r = r < self_crash_round.(i) in
  let live_union r =
    let u = ref Pset.empty in
    for i = 0 to n - 1 do
      if live i r then u := Pset.union !u (Fault_history.d history ~proc:i ~round:r)
    done;
    !u
  in
  let total = Pset.cardinal (Fault_history.cumulative_union history) in
  if total > f then
    Some (Printf.sprintf "cumulative crash count %d exceeds f = %d" total f)
  else begin
    let violation = ref None in
    for r = 1 to rounds do
      let cumulative = Fault_history.cumulative_union_upto history ~round:r in
      (* The asynchronous side misses at most k new processes per simulated
         round (comparability makes the per-round miss-union ≤ k), so by
         round r at most k·r processes can have been committed faulty.  A
         fault adopted at round r may only be committed at r+1, so the
         bound is cumulative, not per-round. *)
      let total = Pset.cardinal cumulative in
      if total > k * r && !violation = None then
        violation :=
          Some
            (Printf.sprintf
               "%d faults committed by round %d, bound is k·r = %d" total r
               (k * r));
      if r < rounds then begin
        let union = live_union r in
        for j = 0 to n - 1 do
          if live j (r + 1) then begin
            let next = Fault_history.d history ~proc:j ~round:(r + 1) in
            if (not (Pset.subset (Pset.remove j union) next)) && !violation = None
            then
              violation :=
                Some
                  (Printf.sprintf
                     "crash closure broken: round-%d union %s ⊄ D(%d,%d)=%s" r
                     (Pset.to_string union) j (r + 1) (Pset.to_string next))
          end
        done
      end
    done;
    !violation
  end
