module Acc = Msgnet.Accountability
module Json = Report.Json

type witness = {
  n : int;
  f : int;
  seed : int;
  inputs : int array;
  strategies : Acc.strategy option array;
}

let run_witness w =
  Acc.run ~seed:w.seed ~n:w.n ~f:w.f ~inputs:w.inputs ~strategies:w.strategies
    ()

let forks w = (run_witness w).Acc.fork <> None

(* ------------------------------------------------------------------ *)
(* Shrinking: the same greedy ladder as {!Shrink}, over lying plans.   *)
(* ------------------------------------------------------------------ *)

(* Every candidate strictly reduces the witness's lie count — Byzantine
   members, fabricated certs, per-receiver vote cells that differ from
   the liar's own input — so greedy descent terminates and the fixpoint
   is 1-minimal by construction. *)
let candidates w =
  let with_strategy i s =
    let strategies = Array.copy w.strategies in
    strategies.(i) <- s;
    { w with strategies }
  in
  let acc = ref [] in
  (* Least aggressive first, reversed below: vote-cell honesty, then
     cert drops, then whole-process demotions — so the emitted list
     tries the biggest reductions first, like Shrink.candidates. *)
  Array.iteri
    (fun i st ->
      match st with
      | None -> ()
      | Some { Acc.votes; cert } ->
          Array.iteri
            (fun receiver v ->
              if v <> w.inputs.(receiver) then begin
                let votes = Array.copy votes in
                votes.(receiver) <- w.inputs.(receiver);
                acc := with_strategy i (Some { Acc.votes; cert }) :: !acc
              end)
            votes;
          if cert <> None then
            acc := with_strategy i (Some { Acc.votes; cert = None }) :: !acc;
          acc := with_strategy i None :: !acc)
    w.strategies;
  !acc

let minimize ~still_fails w =
  let rec loop w steps =
    match List.find_opt still_fails (candidates w) with
    | Some smaller -> loop smaller (steps + 1)
    | None -> (w, steps)
  in
  loop w 0

(* ------------------------------------------------------------------ *)
(* Fuzzing: soundness under random lying plans.                        *)
(* ------------------------------------------------------------------ *)

type fuzz = {
  trials : int;
  forked : int;
  tampered : int;
  violations : int;
  first_violation : (int * witness * Acc.verdict) option;
}

let binary_inputs n = Array.init n (fun i -> i mod 2)

let derive_witness ~n ~f ~byz ~forge ~rng =
  let inputs = binary_inputs n in
  let strategies = Array.make n None in
  for i = 0 to byz - 1 do
    let forge_cert = forge && Dsim.Rng.bool rng in
    strategies.(i) <- Some (Acc.random_strategy rng ~n ~f ~inputs ~forge_cert ())
  done;
  { n; f; seed = Dsim.Rng.bits30 rng; inputs; strategies }

let fuzz ?jobs ?(n = 4) ?(f = 1) ?(byz = 2) ?(forge = false) ~seed ~trials () =
  let obs =
    Runtime.Campaign.run ?jobs ~seed ~trials (fun ~trial:_ ~rng ->
        let w = derive_witness ~n ~f ~byz ~forge ~rng in
        let outcome = run_witness w in
        let verdict = Acc.check ~f outcome in
        ( outcome.Acc.fork <> None,
          outcome.Acc.messages_tampered,
          (if verdict = Acc.Accountable then None else Some (w, verdict)) ))
  in
  let forked = ref 0 and tampered = ref 0 and violations = ref 0 in
  let first = ref None in
  Array.iteri
    (fun idx (fork, tamp, bad) ->
      if fork then incr forked;
      tampered := !tampered + tamp;
      match bad with
      | Some (w, v) ->
          incr violations;
          if !first = None then first := Some (idx, w, v)
      | None -> ())
    obs;
  {
    trials;
    forked = !forked;
    tampered = !tampered;
    violations = !violations;
    first_violation = !first;
  }

(* ------------------------------------------------------------------ *)
(* Exhaustive enumeration: completeness as a finite proof.             *)
(* ------------------------------------------------------------------ *)

type exhaustive = {
  combos : int;
  runs : int;
  forked : int;
  min_accused_on_fork : int option;
  violations : int;
  first_violation : (int * witness * Acc.verdict) option;
}

let exhaustive ?jobs ?(seeds = 3) ?(n = 4) ?(f = 1) ?(byz = 2) ~seed () =
  let values = 2 in
  let per_proc = Acc.vote_strategy_count ~n ~values in
  let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
  let combos = pow per_proc byz in
  let inputs = binary_inputs n in
  let witness_of ~combo ~variant =
    let strategies = Array.make n None in
    let rest = ref combo in
    for i = 0 to byz - 1 do
      strategies.(i) <-
        Some (Acc.vote_strategy_of_index ~n ~values (!rest mod per_proc));
      rest := !rest / per_proc
    done;
    (* Distinct schedules per (combo, variant): sharing schedules across
       combos would let a single unlucky delay race suppress every fork
       in the space at once. *)
    {
      n;
      f;
      seed = Dsim.Rng.derive_seed seed ((combo * seeds) + variant);
      inputs;
      strategies;
    }
  in
  let obs =
    Runtime.Campaign.run ?jobs ~seed ~trials:(combos * seeds)
      (fun ~trial ~rng:_ ->
        let w = witness_of ~combo:(trial / seeds) ~variant:(trial mod seeds) in
        let outcome = run_witness w in
        let verdict = Acc.check ~f outcome in
        ( (if outcome.Acc.fork <> None then
             Some (Rrfd.Pset.cardinal outcome.Acc.accused)
           else None),
          if verdict = Acc.Accountable then None else Some (w, verdict) ))
  in
  let forked = ref 0 and violations = ref 0 in
  let min_accused = ref None in
  let first = ref None in
  Array.iteri
    (fun idx (fork, bad) ->
      (match fork with
      | Some accused ->
          incr forked;
          min_accused :=
            Some
              (match !min_accused with
              | None -> accused
              | Some m -> min m accused)
      | None -> ());
      match bad with
      | Some (w, v) ->
          incr violations;
          if !first = None then first := Some (idx, w, v)
      | None -> ())
    obs;
  {
    combos;
    runs = combos * seeds;
    forked = !forked;
    min_accused_on_fork = !min_accused;
    violations = !violations;
    first_violation = !first;
  }

(* ------------------------------------------------------------------ *)
(* Replayable artifacts: the E24 counterpart of {!Artifact}.           *)
(* ------------------------------------------------------------------ *)

type artifact = {
  witness : witness;
  expected_fork : bool;
  expected_accused : Rrfd.Pset.t;
}

let kind = "e24-byz"
let version = 1

let of_outcome w (outcome : Acc.outcome) =
  {
    witness = w;
    expected_fork = outcome.Acc.fork <> None;
    expected_accused = outcome.Acc.accused;
  }

let pset_to_json s =
  Json.List
    (List.map (fun p -> Json.Number (float_of_int p)) (Rrfd.Pset.to_list s))

let pset_of_json json =
  try Rrfd.Pset.of_list (List.map Json.int (Json.list json))
  with Invalid_argument msg -> raise (Json.Error msg)

let int_array_to_json a =
  Json.List
    (Array.to_list a |> List.map (fun v -> Json.Number (float_of_int v)))

let int_array_of_json json =
  Json.list json |> List.map Json.int |> Array.of_list

let strategy_to_json = function
  | None -> Json.Null
  | Some { Acc.votes; cert } ->
      Json.Obj
        (("votes", int_array_to_json votes)
        ::
        (match cert with
        | None -> []
        | Some (v, quorum) ->
            [
              ("cert_value", Json.Number (float_of_int v));
              ("cert_quorum", pset_to_json quorum);
            ]))

let strategy_of_json ~n = function
  | Json.Null -> None
  | json ->
      let votes =
        Json.sized ~n "votes" (int_array_of_json (Json.member "votes" json))
      in
      let cert =
        if Json.mem "cert_value" json then
          Some
            ( Json.int (Json.member "cert_value" json),
              pset_of_json (Json.member "cert_quorum" json) )
        else None
      in
      Some { Acc.votes; cert }

let to_json t =
  let w = t.witness in
  Report.wrap ~kind ~version
    [
      ("n", Json.Number (float_of_int w.n));
      ("f", Json.Number (float_of_int w.f));
      (* As a decimal string: seeds from [Dsim.Rng.derive_seed] use the
         full 63-bit range, which a JSON double cannot represent. *)
      ("seed", Json.String (string_of_int w.seed));
      ("inputs", int_array_to_json w.inputs);
      ( "strategies",
        Json.List (Array.to_list (Array.map strategy_to_json w.strategies)) );
      ("expected_fork", Json.Bool t.expected_fork);
      ("expected_accused", pset_to_json t.expected_accused);
    ]

let of_json json =
  Report.unwrap ~kind ~version json;
  let n = Json.int_in ~lo:1 ~hi:Rrfd.Pset.max_universe "n" json in
  {
    witness =
      {
        n;
        f = Json.int_in ~lo:0 ~hi:(n - 1) "f" json;
        seed =
          (match Json.member "seed" json with
          | Json.String s -> (
            match int_of_string_opt s with
            | Some seed -> seed
            | None -> raise (Json.Error ("seed is not a decimal integer: " ^ s)))
          | j -> Json.int j);
        inputs =
          Json.sized ~n "inputs"
            (int_array_of_json (Json.member "inputs" json));
        strategies =
          Json.list (Json.member "strategies" json)
          |> List.map (strategy_of_json ~n)
          |> Array.of_list |> Json.sized ~n "strategies";
      };
    expected_fork = Json.bool (Json.member "expected_fork" json);
    expected_accused = pset_of_json (Json.member "expected_accused" json);
  }

let save path t = Report.save ~pretty:true path (to_json t)

let load = Report.load ~decode:of_json

type replay = {
  outcome : Acc.outcome;
  verdict : Acc.verdict;
  fork_match : bool;
  accused_match : bool;
}

let replay t =
  let outcome = run_witness t.witness in
  {
    outcome;
    verdict = Acc.check ~f:t.witness.f outcome;
    fork_match = (outcome.Acc.fork <> None) = t.expected_fork;
    accused_match = Rrfd.Pset.equal outcome.Acc.accused t.expected_accused;
  }

let reproduced r = r.fork_match && r.accused_match
