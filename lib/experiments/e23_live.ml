(* E23 — heard-of predicate rates on the live substrate.

   Every other experiment asks what the model predicts; this one asks
   what an actual machine does.  A grid of system sizes × patience
   policies runs flood-consensus on the live substrate (one OCaml domain
   per process, real mailboxes, real clock), extracts each run's
   heard-of fault history and measures how often the paper's predicates
   P1–P5 hold — wait-for-all should induce failure-free synchrony,
   wait-for-quorum P3 by construction, and a wall-clock deadline
   whatever the scheduler felt like.  The rates are empirical and
   machine-dependent, so the table's [ok] column never depends on them:
   it asserts only the invariant — the pinned engine replay of every
   recorded history reproduces the live decisions bit-for-bit.

   The experiment is split into a nondeterministic {!collect} phase
   (the only part that touches domains or the clock) and a pure
   {!table_of} phase computed from the records alone.  The CLI persists
   {!collect}'s output as a JSON artifact ([live --grid --json]);
   regenerating the table or the artifact from recorded histories
   ([--from]) is deterministic at any [-j], which is what the
   [@live-smoke] gate compares. *)

module Json = Report.Json

let protocol = "flood-consensus"

let grid_ns = [ 3; 5; 7 ]

let policies =
  [
    Live.Patience.Wait_all;
    Live.Patience.Wait_quorum;
    Live.Patience.Deadline 50_000L;
  ]

let f_for n = (n - 1) / 2

type recorded = {
  n : int;
  f : int;
  patience : string;  (** Canonical {!Live.Patience.to_string} form. *)
  inputs : int array;
  history : string;  (** {!Rrfd.Fault_history.to_string_compact}. *)
  decisions : int option array;  (** The live run's decisions. *)
  wall_ns : int64;
}

(* {2 The live phase} *)

let collect ?(seed = 23) ?(trials = 12) ?jobs () =
  let proto = Protocols.Catalog.find_exn protocol in
  let cell_idx = ref 0 in
  List.concat_map
    (fun n ->
      let f = f_for n in
      let jobs =
        Some (Live.effective_jobs ?jobs ~n_procs:n ())
        (* each trial spawns [n] domains of its own: cap the pool so
           workers × processes stays within the machine *)
      in
      List.concat_map
        (fun patience ->
          let idx = !cell_idx in
          incr cell_idx;
          Runtime.Campaign.run ?jobs
            ~seed:(Dsim.Rng.derive_seed seed idx)
            ~trials
            (fun ~trial:_ ~rng ->
              let inputs = Tasks.Inputs.distinct n in
              Dsim.Rng.shuffle_in_place rng inputs;
              let ex =
                Protocols.Catalog.run_live proto ~inputs ~patience ~n ~f ()
              in
              {
                n;
                f;
                patience = Live.Patience.to_string patience;
                inputs;
                history =
                  Rrfd.Fault_history.to_string_compact
                    ex.Rrfd.Substrate.induced;
                decisions = ex.Rrfd.Substrate.decisions;
                wall_ns = Option.get ex.Rrfd.Substrate.wall_ns;
              })
          |> Array.to_list)
        policies)
    grid_ns

(* {2 The deterministic phase} *)

let predicate_names = List.map fst (Msgnet.Heard_of.paper_predicates ~f:0)

type cell_row = {
  cell_n : int;
  cell_patience : string;
  cell_trials : int;
  matched : int;  (** Trials whose pinned replay reproduced the run. *)
  satisfied : (string * int) list;  (** Per-predicate satisfaction counts. *)
  counters : Rrfd.Counters.t array;
}

(* A recorded run, as the live execution it was: every live process
   completes the whole horizon and none crashes, so the differential
   compares every process. *)
let execution_of r history =
  let n = Rrfd.Fault_history.n history in
  let rounds = Rrfd.Fault_history.rounds history in
  {
    Rrfd.Substrate.substrate = "live";
    decisions = r.decisions;
    decision_rounds = Array.make n None;
    rounds_used = rounds;
    induced = history;
    counters = Rrfd.Counters.of_history history;
    violation = None;
    crashed = Rrfd.Pset.empty;
    completed = Array.make n rounds;
    wall_ns = Some r.wall_ns;
  }

(* Everything below is a pure function of the records: replays, predicate
   classification and work counters all derive from the recorded history
   (and inputs), never from a clock or a domain.  [Pool.map_range] keeps
   the regeneration parallel yet deterministic — results land in cell
   order whatever the worker count. *)
let cells_of records =
  let proto = Protocols.Catalog.find_exn protocol in
  let keys =
    List.concat_map
      (fun n -> List.map (fun p -> (n, Live.Patience.to_string p)) policies)
      grid_ns
  in
  let cells = Array.of_list keys in
  Runtime.Pool.map_range ~n:(Array.length cells) (fun i ->
      let cell_n, cell_patience = cells.(i) in
      let mine =
        List.filter
          (fun r -> r.n = cell_n && r.patience = cell_patience)
          records
      in
      let matched = ref 0 in
      let satisfied =
        List.map (fun p -> (p, ref 0)) predicate_names
      in
      let counters =
        List.map
          (fun r ->
            let history = Rrfd.Fault_history.of_string_compact r.history in
            let ex = execution_of r history in
            let d =
              Protocols.Catalog.differential proto ~inputs:r.inputs ~f:r.f ex
            in
            if d.divergence = None then incr matched;
            List.iter
              (fun (name, holds) ->
                if holds then incr (List.assoc name satisfied))
              (Msgnet.Heard_of.classify ~f:r.f history);
            ex.counters)
          mine
      in
      {
        cell_n;
        cell_patience;
        cell_trials = List.length mine;
        matched = !matched;
        satisfied = List.map (fun (p, c) -> (p, !c)) satisfied;
        counters = Array.of_list counters;
      })
  |> Array.to_list

let table_of records =
  let cells = cells_of records in
  let rows =
    List.map
      (fun c ->
        Table.cell_int c.cell_n :: c.cell_patience
        :: Table.cell_int c.cell_trials
        :: Table.cell_int c.matched
        :: (List.map (fun (_, k) -> Table.cell_int k) c.satisfied
           @ [ Table.cell_bool (c.matched = c.cell_trials) ]))
      cells
  in
  {
    Table.id = "E23";
    title = "live-substrate heard-of predicate rates (n × patience)";
    claim =
      "real concurrency is just another round-by-round environment: every \
       fault history a machine induces under a patience policy replays \
       pinned on the abstract engine with identical decisions, and the \
       paper's predicates measure which model the machine happened to \
       inhabit";
    header =
      [ "n"; "patience"; "trials"; "matched" ] @ predicate_names @ [ "ok" ];
    rows;
    notes =
      [
        Printf.sprintf
          "protocol = %s, f = (n-1)/2, rounds = protocol horizon; trials \
           ran live (one domain per process)"
          protocol;
        "matched counts trials whose pinned engine replay of the recorded \
         history reproduced the live decisions; ok requires matched = \
         trials and never depends on the (machine-dependent) P1–P5 rates";
        "P1..P5 count recorded histories satisfying each paper predicate \
         at the cell's f";
      ];
    counters =
      Table.counter_stats
        (Array.concat (List.map (fun c -> c.counters) cells));
  }

let run ?seed ?trials ?jobs () = table_of (collect ?seed ?trials ?jobs ())

(* {2 Artifact codec}

   In the {!Report.wrap} envelope so [live --grid --from] can refuse
   foreign files; the decisions array uses the counterexample artifact's
   null-for-undecided convention. *)

let kind = "rrfd-live-grid"

let version = 1

let to_json records =
  Report.wrap ~kind ~version
    [
      ("protocol", Json.String protocol);
      ( "records",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("n", Json.Number (float_of_int r.n));
                   ("f", Json.Number (float_of_int r.f));
                   ("patience", Json.String r.patience);
                   ( "inputs",
                     Json.List
                       (List.map
                          (fun v -> Json.Number (float_of_int v))
                          (Array.to_list r.inputs)) );
                   ("history", Json.String r.history);
                   ( "decisions",
                     Json.List
                       (List.map
                          (function
                            | None -> Json.Null
                            | Some v -> Json.Number (float_of_int v))
                          (Array.to_list r.decisions)) );
                   ("wall_ns", Json.String (Int64.to_string r.wall_ns));
                 ])
             records) );
    ]

let of_json json =
  Report.unwrap ~kind ~version json;
  List.map
    (fun r ->
      let history = Json.str (Json.member "history" r) in
      (* The replay runs over the history's processes: every other size in
         the record must agree with it. *)
      let n =
        match Rrfd.Fault_history.of_string_compact history with
        | h -> Rrfd.Fault_history.n h
        | exception Invalid_argument msg -> raise (Json.Error msg)
      in
      {
        n = Json.int_in ~lo:n ~hi:n "n" r;
        f = Json.int_in ~lo:0 ~hi:(n - 1) "f" r;
        patience = Json.str (Json.member "patience" r);
        inputs =
          Json.list (Json.member "inputs" r)
          |> List.map Json.int |> Array.of_list |> Json.sized ~n "inputs";
        history;
        decisions =
          Json.list (Json.member "decisions" r)
          |> List.map (function Json.Null -> None | j -> Some (Json.int j))
          |> Array.of_list
          |> Json.sized ~n "decisions";
        wall_ns =
          (let s = Json.str (Json.member "wall_ns" r) in
           match Int64.of_string_opt s with
           | Some v -> v
           | None -> raise (Json.Error ("bad wall_ns " ^ s)));
      })
    (Json.list (Json.member "records" json))
