(* Derivation of heard-of predicates from adversary policies (E26).

   The strongest expressible predicate is the conjunction of every
   candidate no observed execution violates — strongest by construction,
   independent of any small-n ordering subtleties.  The Submodel lattice
   (built once per vocabulary at n' = min n 3) is only used to *present*
   the answer: drop conjuncts implied by the rest, and reduce the
   refuted set to its weakest members (the frontier).  A refuted
   candidate strictly stronger than the derivation can never be sound —
   if it were, it would be a conjunct of the meet — so witnessing every
   refuted candidate certifies tightness over the whole vocabulary. *)

module Json = Report.Json

type config = {
  n : int;
  f : int;
  rounds : int;
  observe_trials : int;
  certify_trials : int;
  exhaustive : bool;
  seed : int;
  jobs : int option;
}

let default_config =
  {
    n = 5;
    f = 2;
    rounds = 4;
    observe_trials = 2000;
    certify_trials = 10_000;
    exhaustive = false;
    seed = 26;
    jobs = None;
  }

(* Distinct RNG streams per campaign phase, all derived from the one
   user-facing seed (the artifact stores only that seed; replay
   recomputes the streams). *)
let observe_seed cfg = Dsim.Rng.derive_seed cfg.seed 1

let certify_seed cfg = Dsim.Rng.derive_seed cfg.seed 2

let dedupe specs =
  List.rev
    (List.fold_left
       (fun acc s -> if List.mem s acc then acc else s :: acc)
       [] specs)

let candidates ~n ~f =
  dedupe
    ([
       "true";
       "no-self";
       "not-all-faulty";
       "crash-closure";
       "someone-seen";
       "antisym";
       "detector-s";
       "eq5";
       "kset:k=1";
       "kset:k=2";
     ]
    @ List.init (f + 1) (fun f' -> Printf.sprintf "async:f=%d" f')
    @ [
        Printf.sprintf "omission:f=%d" f;
        Printf.sprintf "omission:f=%d" (n - 1);
        Printf.sprintf "crash:f=%d" f;
        Printf.sprintf "shm:f=%d" f;
        Printf.sprintf "shm-alt:f=%d" f;
        Printf.sprintf "snapshot:f=%d" f;
        Printf.sprintf "async-mixed:f=%d,t=%d" (max 0 (f - 1)) (max 1 f);
      ])

type source = Fuzz of int | Exhaustive

type witness = {
  spec : string;
  source : source;
  history : Rrfd.Fault_history.t;
  reason : string;
}

type outcome = {
  policy : string;
  cfg : config;
  cands : string list;
  sound : string list;
  conjuncts : string list;
  frontier : string list;
  witnesses : witness list;
  separations : witness list;
  certified : bool;
  certify_violation : (int * Rrfd.Fault_history.t) option;
  counters : Rrfd.Counters.t array;
}

let induced_history ~adversary ~n ~f ~rounds ~rng =
  let seed = Dsim.Rng.bits30 rng in
  let ex =
    (Msgnet.Round_layer.run ~seed ~adversary ~n ~f ~rounds
       ~algorithm:(Rrfd.Full_info.algorithm ~inputs:(Tasks.Inputs.distinct n))
       ())
      .execution
  in
  (ex.induced, ex.counters)

let ( let* ) = Result.bind

let predicates_of specs =
  List.fold_left
    (fun acc spec ->
      let* acc = acc in
      let* p = Spec.predicate spec in
      Ok ((spec, p) :: acc))
    (Ok []) specs
  |> Result.map List.rev

let conj_of named =
  match named with
  | [] -> Rrfd.Predicate.always
  | (_, first) :: rest ->
    List.fold_left (fun acc (_, p) -> Rrfd.Predicate.conj acc p) first rest

let predicate_of o =
  match predicates_of o.sound with
  | Ok named ->
    Rrfd.Predicate.make
      ~name:(String.concat " ∧ " o.conjuncts)
      ~doc:("derived from policy " ^ o.policy)
      (fun h -> Rrfd.Predicate.explain (conj_of named) h)
  | Error e -> invalid_arg ("Derive.predicate_of: " ^ e)

(* Enumeration-backed separation: the first history of the whole
   depth-1-then-depth-2 derived space violating [q].  Deterministic, so
   replay can re-run it and demand the identical history. *)
let find_separation ~n ~rounds ~derived ~q =
  let violates h = not (Rrfd.Predicate.holds q h) in
  let rec try_depth r =
    if r > min rounds 2 then None
    else
      match
        Adversary.Enumerate.find ~n ~rounds:r ~satisfying:derived ~f:violates
      with
      | Some h -> Some h
      | None -> try_depth (r + 1)
  in
  try_depth 1

(* Lattice dimensions: big enough that the parameterised candidates do
   not collapse (|D| ≤ f must not be vacuous, so n' > f + 1 where the
   space allows), small enough to enumerate.  At n' = 3 two rounds fit
   (≈ 1.2·10^5 histories); at n' = 4 only one does (the two-round space
   is ≈ 2.6·10^9). *)
let lattice_dims cfg =
  let n' = max 3 (min cfg.n (min 4 (cfg.f + 2))) in
  (n', if n' <= 3 then min cfg.rounds 2 else 1)

(* One lattice serves every derivation over the same vocabulary; the
   grid and the tests build it here once instead of per policy. *)
let lattice_for ~cfg =
  let* named = predicates_of (candidates ~n:cfg.n ~f:cfg.f) in
  let n, rounds = lattice_dims cfg in
  Ok (Rrfd.Submodel.lattice ~n ~rounds named)

let derive ?lattice ~cfg ~policy () =
  let* adversary = Spec.adversary policy in
  let cands = candidates ~n:cfg.n ~f:cfg.f in
  let* named = predicates_of cands in
  if List.length cands > 62 then invalid_arg "Derive.derive: > 62 candidates";
  if cfg.exhaustive && cfg.n > 4 then
    Error
      (Printf.sprintf
         "exhaustive tightness needs n <= 4 (the space is ((2^n-1)^n)^rounds); \
          got n=%d" cfg.n)
  else begin
    let preds = Array.of_list (List.map snd named) in
    let specs = Array.of_list cands in
    let lat =
      match lattice with
      | Some l -> l
      | None ->
        let n', rounds' = lattice_dims cfg in
        Rrfd.Submodel.lattice ~n:n' ~rounds:rounds' named
    in
    (* Observation pass: one violation bitmask per execution. *)
    let obs =
      Runtime.Campaign.run ?jobs:cfg.jobs ~seed:(observe_seed cfg)
        ~trials:cfg.observe_trials (fun ~trial:_ ~rng ->
          let h, counters =
            induced_history ~adversary ~n:cfg.n ~f:cfg.f ~rounds:cfg.rounds
              ~rng
          in
          let mask = ref 0 in
          Array.iteri
            (fun i p -> if not (Rrfd.Predicate.holds p h) then
                mask := !mask lor (1 lsl i))
            preds;
          (Rrfd.Fault_history.to_string_compact h, !mask, counters))
      |> Array.map (fun (c, m, k) -> (c, m, k))
    in
    let violated =
      Array.fold_left (fun acc (_, mask, _) -> acc lor mask) 0 obs
    in
    let sound = ref [] and refuted = ref [] in
    Array.iteri
      (fun i spec ->
        if violated land (1 lsl i) = 0 then sound := spec :: !sound
        else refuted := spec :: !refuted)
      specs;
    let sound = List.rev !sound and refuted = List.rev !refuted in
    (* One fuzz witness per refuted candidate: its lowest violating
       trial.  The history is an observed execution, so it satisfies
       every sound candidate — hence the derived predicate — by
       construction. *)
    let witnesses =
      List.map
        (fun spec ->
          let i =
            let rec idx j = if specs.(j) = spec then j else idx (j + 1) in
            idx 0
          in
          let rec first t =
            let _, mask, _ = obs.(t) in
            if mask land (1 lsl i) <> 0 then t else first (t + 1)
          in
          let trial = first 0 in
          let compact, _, _ = obs.(trial) in
          let history = Rrfd.Fault_history.of_string_compact compact in
          let reason =
            match Rrfd.Predicate.explain preds.(i) history with
            | Some r -> r
            | None -> "violation not reproducible from compact history"
          in
          { spec; source = Fuzz trial; history; reason })
        refuted
    in
    let conjuncts = Rrfd.Submodel.minimal_conjuncts lat sound in
    (* A refuted candidate whose lattice history set equals [true]'s is
       degenerate at the lattice size (e.g. crash-closure in a one-round
       space): its real strength is invisible there, so it must neither
       dominate the frontier nor be dominated out of it — list it
       alongside the ordered frontier instead. *)
    let degenerate, orderable =
      List.partition
        (fun s -> s <> "true" && Rrfd.Submodel.equivalent lat s "true")
        refuted
    in
    let frontier = Rrfd.Submodel.weakest lat orderable @ degenerate in
    let derived = conj_of (List.filter (fun (s, _) -> List.mem s sound) named) in
    (* Upward certificate: a fresh sharded campaign must find nothing. *)
    let certify_violation =
      Runtime.Campaign.search ?jobs:cfg.jobs ~seed:(certify_seed cfg)
        ~trials:cfg.certify_trials (fun ~trial ~rng ->
          let h, _ =
            induced_history ~adversary ~n:cfg.n ~f:cfg.f ~rounds:cfg.rounds
              ~rng
          in
          if Rrfd.Predicate.holds derived h then None else Some (trial, h))
    in
    (* Downward proof at small n: enumerate the whole derived space for a
       history escaping each frontier member. *)
    let separations =
      if not cfg.exhaustive then []
      else
        List.filter_map
          (fun spec ->
            let q = List.assoc spec named in
            match
              find_separation ~n:cfg.n ~rounds:cfg.rounds ~derived ~q
            with
            | None -> None
            | Some history ->
              let reason =
                match Rrfd.Predicate.explain q history with
                | Some r -> r
                | None -> "separation no longer violates the candidate"
              in
              Some { spec; source = Exhaustive; history; reason })
          frontier
    in
    Ok
      {
        policy;
        cfg;
        cands;
        sound;
        conjuncts;
        frontier;
        witnesses;
        separations;
        certified = certify_violation = None;
        certify_violation;
        counters = Array.map (fun (_, _, k) -> k) obs;
      }
  end

let tight o =
  let witnessed spec = List.exists (fun w -> w.spec = spec) o.witnesses in
  let separated spec = List.exists (fun w -> w.spec = spec) o.separations in
  List.for_all witnessed
    (List.filter (fun s -> not (List.mem s o.sound)) o.cands)
  && ((not o.cfg.exhaustive) || List.for_all separated o.frontier)

let ok o = o.certified && tight o

let pp ppf o =
  let open Format in
  fprintf ppf "@[<v>policy %s (n=%d f=%d rounds=%d seed=%d):@," o.policy
    o.cfg.n o.cfg.f o.cfg.rounds o.cfg.seed;
  fprintf ppf "  candidates searched: %d@," (List.length o.cands);
  fprintf ppf "  derived: %s@," (String.concat " ∧ " o.conjuncts);
  fprintf ppf "  sound (%d): %s@," (List.length o.sound)
    (String.concat ", " o.sound);
  fprintf ppf "  frontier (%d refuted, %d weakest): %s@,"
    (List.length o.witnesses) (List.length o.frontier)
    (String.concat ", " o.frontier);
  List.iter
    (fun w ->
      let tag =
        match w.source with
        | Fuzz t -> Printf.sprintf "fuzz trial %d" t
        | Exhaustive -> "exhaustive"
      in
      fprintf ppf "    %s refuted (%s): %s@," w.spec tag w.reason)
    o.witnesses;
  List.iter
    (fun w ->
      fprintf ppf "    %s separated by enumeration: %s  [%s]@," w.spec
        w.reason
        (Rrfd.Fault_history.to_string_compact w.history))
    o.separations;
  (match o.certify_violation with
  | None ->
    fprintf ppf "  certified: %d fresh executions, zero violations@,"
      o.cfg.certify_trials
  | Some (t, h) ->
    fprintf ppf "  NOT CERTIFIED: certification trial %d violates it: %s@," t
      (Rrfd.Fault_history.to_string_compact h));
  fprintf ppf "  tight: %s@]" (if tight o then "yes" else "NO")

(* ------------------------------------------------------------------ *)
(* Replayable artifacts (schema e26-derive/1).                         *)
(* ------------------------------------------------------------------ *)

let kind = "e26-derive"

let version = 1

let strings l = Json.List (List.map (fun s -> Json.String s) l)

let string_list json = List.map Json.str (Json.list json)

let history_of_json json =
  try Rrfd.Fault_history.of_string_compact (Json.str json)
  with Invalid_argument msg -> raise (Json.Error msg)

let witness_to_json w =
  Json.Obj
    (("spec", Json.String w.spec)
    :: (match w.source with
       | Fuzz t -> [ ("source", Json.String "fuzz"); ("trial", Json.Number (float_of_int t)) ]
       | Exhaustive -> [ ("source", Json.String "exhaustive") ])
    @ [
        ("history", Json.String (Rrfd.Fault_history.to_string_compact w.history));
        ("reason", Json.String w.reason);
      ])

let witness_of_json json =
  let spec = Json.str (Json.member "spec" json) in
  let source =
    match Json.str (Json.member "source" json) with
    | "fuzz" -> Fuzz (Json.int (Json.member "trial" json))
    | "exhaustive" -> Exhaustive
    | s -> raise (Json.Error ("unknown witness source " ^ s))
  in
  let history = history_of_json (Json.member "history" json) in
  let reason = Json.str (Json.member "reason" json) in
  { spec; source; history; reason }

let to_json o =
  Report.wrap ~kind ~version
    [
      ("policy", Json.String o.policy);
      ("n", Json.Number (float_of_int o.cfg.n));
      ("f", Json.Number (float_of_int o.cfg.f));
      ("rounds", Json.Number (float_of_int o.cfg.rounds));
      ("observe_trials", Json.Number (float_of_int o.cfg.observe_trials));
      ("certify_trials", Json.Number (float_of_int o.cfg.certify_trials));
      ("exhaustive", Json.Bool o.cfg.exhaustive);
      (* Seeds can be 63-bit (derived per grid row); a JSON double only
         holds 53, so carry the seed as a decimal string. *)
      ("seed", Json.String (string_of_int o.cfg.seed));
      ("candidates", strings o.cands);
      ("sound", strings o.sound);
      ("conjuncts", strings o.conjuncts);
      ("frontier", strings o.frontier);
      ("witnesses", Json.List (List.map witness_to_json o.witnesses));
      ("separations", Json.List (List.map witness_to_json o.separations));
      ("certified", Json.Bool o.certified);
      ( "certify_violation",
        match o.certify_violation with
        | None -> Json.Null
        | Some (t, h) ->
          Json.Obj
            [
              ("trial", Json.Number (float_of_int t));
              ("history", Json.String (Rrfd.Fault_history.to_string_compact h));
            ] );
    ]

let of_json json =
  Report.unwrap ~kind ~version json;
  let seed =
    match int_of_string_opt (Json.str (Json.member "seed" json)) with
    | Some s -> s
    | None -> raise (Json.Error "seed is not a decimal integer")
  in
  let n = Json.int_in ~lo:1 ~hi:Rrfd.Pset.max_universe "n" json in
  let cfg =
    {
      n;
      f = Json.int_in ~lo:0 ~hi:(n - 1) "f" json;
      rounds = Json.int_in ~lo:1 ~hi:max_int "rounds" json;
      observe_trials = Json.int_in ~lo:0 ~hi:max_int "observe_trials" json;
      certify_trials = Json.int_in ~lo:0 ~hi:max_int "certify_trials" json;
      exhaustive = Json.bool (Json.member "exhaustive" json);
      seed;
      jobs = None;
    }
  in
  let cands = string_list (Json.member "candidates" json) in
  (* Replay looks every witness's spec up among the candidates and checks
     its history against predicates over [n] processes. *)
  let witnesses key =
    List.map
      (fun j ->
        let w = witness_of_json j in
        if not (List.mem w.spec cands) then
          raise (Json.Error ("witness for unknown candidate " ^ w.spec));
        if Rrfd.Fault_history.n w.history <> n then
          raise (Json.Error "witness history is not over n processes");
        w)
      (Json.list (Json.member key json))
  in
  {
    policy = Json.str (Json.member "policy" json);
    cfg;
    cands;
    sound = string_list (Json.member "sound" json);
    conjuncts = string_list (Json.member "conjuncts" json);
    frontier = string_list (Json.member "frontier" json);
    witnesses = witnesses "witnesses";
    separations = witnesses "separations";
    certified = Json.bool (Json.member "certified" json);
    certify_violation =
      (match Json.member "certify_violation" json with
      | Json.Null -> None
      | cv ->
        Some
          ( Json.int (Json.member "trial" cv),
            history_of_json (Json.member "history" cv) ));
    counters = [||];
  }

let save path o = Report.save ~pretty:false path (to_json o)

let load = Report.load ~decode:of_json

type replay = {
  loaded : outcome;
  witnesses_valid : bool;
  fuzz_reproduced : bool;
  separations_valid : bool;
}

let replay o =
  let* adversary = Spec.adversary o.policy in
  let* named = predicates_of o.cands in
  let* sound_named = predicates_of o.sound in
  let derived = conj_of sound_named in
  let pair_valid w =
    Rrfd.Predicate.holds derived w.history
    && not (Rrfd.Predicate.holds (List.assoc w.spec named) w.history)
  in
  let witnesses_valid =
    List.for_all pair_valid o.witnesses && List.for_all pair_valid o.separations
  in
  let fuzz_reproduced =
    List.for_all
      (fun w ->
        match w.source with
        | Exhaustive -> true
        | Fuzz trial ->
          let rng = Dsim.Rng.derive ~seed:(observe_seed o.cfg) ~stream:trial in
          let h, _ =
            induced_history ~adversary ~n:o.cfg.n ~f:o.cfg.f
              ~rounds:o.cfg.rounds ~rng
          in
          Rrfd.Fault_history.equal h w.history)
      o.witnesses
  in
  let separations_valid =
    List.for_all
      (fun w ->
        let q = List.assoc w.spec named in
        match find_separation ~n:o.cfg.n ~rounds:o.cfg.rounds ~derived ~q with
        | Some h -> Rrfd.Fault_history.equal h w.history
        | None -> false)
      o.separations
  in
  Ok { loaded = o; witnesses_valid; fuzz_reproduced; separations_valid }

let reproduced r =
  r.witnesses_valid && r.fuzz_reproduced && r.separations_valid
