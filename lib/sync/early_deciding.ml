module Pset = Rrfd.Pset

type state = {
  known : int list; (* sorted, distinct *)
  heard : Pset.t list; (* per completed round, most recent first *)
  f : int;
  decision : int option;
}

let merge a b = List.sort_uniq Int.compare (List.rev_append a b)

let algorithm ~inputs ~f =
  if f < 0 then invalid_arg "Early_deciding.algorithm: negative f";
  {
    Rrfd.Algorithm.name = Printf.sprintf "early-deciding(f=%d)" f;
    init =
      (fun ~n p ->
        if Array.length inputs <> n then
          invalid_arg "Early_deciding.algorithm: inputs length mismatch";
        { known = [ inputs.(p) ]; heard = []; f; decision = None });
    emit = (fun s ~round:_ -> s.known);
    deliver =
      (fun s ~round ~view ->
        let known =
          Rrfd.View.fold (fun _ vs acc -> merge acc vs) view s.known
        in
        let heard_now = Rrfd.View.heard view in
        let clean =
          match s.heard with
          | previous :: _ -> Pset.equal previous heard_now
          | [] -> false
        in
        let decision =
          if Option.is_some s.decision then s.decision
          else if clean || round >= s.f + 1 then
            match known with v :: _ -> Some v | [] -> assert false
          else None
        in
        { s with known; heard = heard_now :: s.heard; decision });
    decide = (fun s -> s.decision);
  }
