type packed =
  | Packed : {
      pp_msg : Format.formatter -> 'm -> unit;
      algorithm : inputs:int array -> f:int -> ('s, 'm, int) Rrfd.Algorithm.t;
    }
      -> packed

type t = {
  name : string;
  doc : string;
  horizon : n:int -> f:int -> int;
  default_n : int;
  default_f : n:int -> int;
  pp_out : Format.formatter -> int -> unit;
  properties : string list;
  faults : string list;
  packed : packed;
}

let name t = t.name

let doc t = t.doc

let horizon t = t.horizon

let default_n t = t.default_n

let default_f t = t.default_f

let pp_out t = t.pp_out

let properties t = t.properties

let faults t = t.faults

(* Fault-model vocabulary every entry must draw from; the catalog
   invariant test rejects anything else, so a new fault class has to be
   added here deliberately rather than by typo. *)
let known_faults = [ "crash"; "omission"; "byzantine" ]

let default_inputs ~n = Tasks.Inputs.distinct n

(* The agreement defaults mirror what the checker historically assumed:
   consensus-flavoured protocols answer to termination/validity/agreement,
   adopt-commit to its own coherence property. *)
let consensus_properties = [ "termination"; "validity"; "agreement" ]

let pp_int_list ppf l =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
       Format.pp_print_int)
    l

let pp_adopt_commit_msg ppf = function
  | Rrfd.Adopt_commit.Value v -> Format.fprintf ppf "value %d" v
  | Rrfd.Adopt_commit.Vote (Rrfd.Adopt_commit.Commit_vote v) ->
    Format.fprintf ppf "commit-vote %d" v
  | Rrfd.Adopt_commit.Vote (Rrfd.Adopt_commit.Adopt_vote v) ->
    Format.fprintf ppf "adopt-vote %d" v

let all =
  [
    {
      name = "kset-one-round";
      doc =
        "Theorem 3.1: emit the input, decide the lowest-id unsuspected \
         value — k-set agreement in one round under the k-set detector";
      horizon = (fun ~n:_ ~f:_ -> 1);
      default_n = 4;
      default_f = (fun ~n:_ -> 1);
      pp_out = Format.pp_print_int;
      properties = consensus_properties;
      faults = [ "crash"; "omission" ];
      packed =
        Packed
          {
            pp_msg = Format.pp_print_int;
            algorithm = (fun ~inputs ~f:_ -> Rrfd.Kset.one_round ~inputs);
          };
    };
    {
      name = "consensus";
      doc =
        "the Theorem-3.1 algorithm run for consensus (k-set detector with \
         k = 1, or identical views)";
      horizon = (fun ~n:_ ~f:_ -> 1);
      default_n = 4;
      default_f = (fun ~n:_ -> 1);
      pp_out = Format.pp_print_int;
      properties = consensus_properties;
      faults = [ "crash"; "omission" ];
      packed =
        Packed
          {
            pp_msg = Format.pp_print_int;
            algorithm = (fun ~inputs ~f:_ -> Rrfd.Kset.consensus ~inputs);
          };
    };
    {
      name = "kset-snapshot";
      doc =
        "Corollary 3.2: the same one-round algorithm under the snapshot \
         RRFD with f = k − 1 failures, which implies the k-set detector";
      horizon = (fun ~n:_ ~f:_ -> 1);
      default_n = 4;
      default_f = (fun ~n:_ -> 1);
      pp_out = Format.pp_print_int;
      properties = consensus_properties;
      faults = [ "crash"; "omission" ];
      packed =
        Packed
          {
            pp_msg = Format.pp_print_int;
            algorithm = (fun ~inputs ~f:_ -> Rrfd.Kset.one_round ~inputs);
          };
    };
    {
      name = "adopt-commit";
      doc =
        "the Section-4.2 two-round adopt-commit protocol, decisions packed \
         as ints (commit v = 2v, adopt v = 2v+1)";
      horizon = (fun ~n:_ ~f:_ -> 2);
      default_n = 4;
      default_f = (fun ~n:_ -> 1);
      pp_out = Rrfd.Adopt_commit.pp_encoded;
      properties = [ "adopt-commit" ];
      faults = [ "crash"; "omission" ];
      packed =
        Packed
          {
            pp_msg = pp_adopt_commit_msg;
            algorithm =
              (fun ~inputs ~f:_ ->
                Rrfd.Algorithm.map_output Rrfd.Adopt_commit.encode
                  (Rrfd.Adopt_commit.algorithm ~inputs));
          };
    };
    {
      name = "phased-consensus";
      doc =
        "the Section-7 program: phases of one candidate round plus two \
         adopt-commit rounds; safe always, decides one phase after the \
         candidate rounds stabilise";
      horizon =
        (fun ~n:_ ~f:_ -> Rrfd.Phased_consensus.rounds_needed ~stabilize_at:1);
      default_n = 4;
      default_f = (fun ~n -> n - 1);
      pp_out = Format.pp_print_int;
      properties = consensus_properties;
      faults = [ "crash"; "omission" ];
      packed =
        Packed
          {
            pp_msg =
              (fun ppf _ -> Format.pp_print_string ppf "<phased-msg>");
            algorithm =
              (fun ~inputs ~f:_ -> Rrfd.Phased_consensus.algorithm ~inputs);
          };
    };
    {
      name = "early-deciding";
      doc =
        "flooding consensus with the clean-round rule: decides by round \
         min(f'+2, f+1) when only f' ≤ f crashes actually occur";
      horizon = (fun ~n:_ ~f -> f + 1);
      default_n = 4;
      default_f = (fun ~n:_ -> 1);
      pp_out = Format.pp_print_int;
      properties = consensus_properties;
      faults = [ "crash" ];
      packed =
        Packed
          {
            pp_msg = pp_int_list;
            algorithm =
              (fun ~inputs ~f -> Syncnet.Early_deciding.algorithm ~inputs ~f);
          };
    };
    {
      name = "flood-consensus";
      doc =
        "FloodSet: broadcast known values for f+1 rounds, decide the \
         minimum — the Corollary-4.2 baseline the chain adversary defeats \
         at any smaller horizon";
      horizon = (fun ~n:_ ~f -> f + 1);
      default_n = 4;
      default_f = (fun ~n:_ -> 1);
      pp_out = Format.pp_print_int;
      properties = consensus_properties;
      faults = [ "crash" ];
      packed =
        Packed
          {
            pp_msg = pp_int_list;
            algorithm = (fun ~inputs ~f -> Syncnet.Flood.consensus ~inputs ~f);
          };
    };
    {
      name = "byz-vote";
      doc =
        "one-shot two-threshold quorum vote: decide on n−f unanimous \
         round-1 votes, publish the quorum as a round-2 certificate — \
         the decision rule whose forks are ≥ f+1-accountable \
         (Accountability/E24)";
      horizon = (fun ~n:_ ~f:_ -> 2);
      default_n = 4;
      default_f = (fun ~n:_ -> 1);
      pp_out = Format.pp_print_int;
      (* No termination: the vote legitimately abstains whenever the
         first n−f votes disagree — safety without liveness, which is
         the point of an accountable decision rule. *)
      properties = [ "validity"; "agreement" ];
      faults = [ "crash"; "byzantine" ];
      packed =
        Packed
          {
            pp_msg = Rrfd.Quorum_vote.pp_msg;
            algorithm = (fun ~inputs ~f -> Rrfd.Quorum_vote.algorithm ~inputs ~f);
          };
    };
  ]

let names = List.map (fun t -> t.name) all

let find name_ = List.find_opt (fun t -> String.equal t.name name_) all

let find_exn name_ =
  match find name_ with
  | Some t -> t
  | None ->
    invalid_arg
      (Printf.sprintf "Catalog.find_exn: unknown protocol %S (have: %s)" name_
         (String.concat ", " names))

(* {2 Substrate runners}

   The algorithm's state and message types are existential, so the only way
   out of the catalog is to run: each runner instantiates the algorithm
   once and drives it through the corresponding substrate's [run]. *)

let inputs_for ~n = function Some i -> i | None -> default_inputs ~n

let horizon_for t ~n ~f = function Some r -> r | None -> t.horizon ~n ~f

let run_engine t ?inputs ?check ?stop_when_decided ?max_rounds ~n ~f
    ~detector () =
  let (Packed p) = t.packed in
  Rrfd.Engine.run ~n ?max_rounds ?check ?stop_when_decided
    ~algorithm:(p.algorithm ~inputs:(inputs_for ~n inputs) ~f)
    ~detector ()

let run_sync t ?inputs ?check ?stop_when_decided ?rounds ~n ~f ~pattern () =
  let (Packed p) = t.packed in
  let rounds = horizon_for t ~n ~f rounds in
  Syncnet.Sync_net.run ~n ~rounds ~pattern
    ~algorithm:(p.algorithm ~inputs:(inputs_for ~n inputs) ~f)
    ?check ?stop_when_decided ()

let run_msgnet t ?inputs ?crashes ?adversary ?min_delay ?max_delay
    ?retransmit_every ?time_horizon ?rounds ~seed ~n ~f () =
  let (Packed p) = t.packed in
  let rounds = horizon_for t ~n ~f rounds in
  (Msgnet.Round_layer.run ~seed ?min_delay ?max_delay ?crashes ?adversary
     ?retransmit_every ?horizon:time_horizon ~n ~f ~rounds
     ~algorithm:(p.algorithm ~inputs:(inputs_for ~n inputs) ~f)
     ())
    .execution

let run_live t ?inputs ?patience ?rounds ~n ~f () =
  let (Packed p) = t.packed in
  let rounds = horizon_for t ~n ~f rounds in
  Live.run ?patience ~n ~f ~rounds
    ~algorithm:(p.algorithm ~inputs:(inputs_for ~n inputs) ~f)
    ()

let differential t ?inputs ~f (ex : int Rrfd.Substrate.execution) =
  let (Packed p) = t.packed in
  let n = Rrfd.Fault_history.n ex.induced in
  Rrfd.Engine.differential
    ~algorithm:(p.algorithm ~inputs:(inputs_for ~n inputs) ~f)
    ex

let transcript t ?inputs ?check ~n ~f ~max_rounds ~detector () =
  let (Packed p) = t.packed in
  let trace =
    Rrfd.Trace.record ~n ~max_rounds ?check ~pp_msg:p.pp_msg
      ~algorithm:(p.algorithm ~inputs:(inputs_for ~n inputs) ~f)
      ~detector ()
  in
  Format.asprintf "@[<v>%a@]" (Rrfd.Trace.pp t.pp_out) trace
