(* Composable network fault-injection policies.  See adversary.mli.

   Parsing deliberately mirrors Check.Spec's [name:key=val,...] grammar
   (the dependency points the other way — Check.Spec.adversary delegates
   here), so predicates, properties and adversaries share one vocabulary
   across CLI flags, table rows and JSON artifacts. *)

type blocks = Split_at of int | Blocks of Rrfd.Pset.t list

type byz_behaviour = { equivocate : bool; corrupt : bool; forge : bool }

type atom =
  | Drop of { p : float }
  | Duplicate of { p : float; copies : int }
  | Spike of { p : float; factor : float }
  | Reorder of { p : float; window : float }
  | Partition of { at : float; heal : float; blocks : blocks }
  | Byz of { members : Rrfd.Pset.t; behaviour : byz_behaviour }

type t = { spec : string; atoms : atom list }

let none = { spec = "none"; atoms = [] }
let is_noop t = t.atoms = []
let make ~spec atoms = { spec; atoms }
let spec t = t.spec

let spec_names =
  "none, drop:p=<pct>, dup:p=<pct>,copies=<k>, spike:p=<pct>,factor=<x>, "
  ^ "reorder:p=<pct>,window=<w>, partition:at=<t0>,heal=<t1>,left=<k>, "
  ^ "byz:m=<k>,equiv=<0|1>,corrupt=<0|1>,forge=<0|1>"

(* [name:k1=v1,k2=v2] with small non-negative integer values; probabilities
   are percentages so spec strings stay integer-only like Check.Spec's. *)
let parse_atom s =
  let ( let* ) = Result.bind in
  let name, args =
    match String.index_opt s ':' with
    | None -> (s, "")
    | Some i ->
        (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  let name = String.trim name in
  let* params =
    if args = "" then Ok []
    else
      String.split_on_char ',' args
      |> List.fold_left
           (fun acc kv ->
             let* acc = acc in
             match String.split_on_char '=' kv with
             | [ k; v ] -> (
                 match int_of_string_opt (String.trim v) with
                 | Some i when i >= 0 -> Ok ((String.trim k, i) :: acc)
                 | _ ->
                     Error
                       (Printf.sprintf
                          "adversary %S: parameter %s must be a non-negative \
                           integer"
                          s (String.trim k)))
             | _ -> Error (Printf.sprintf "adversary %S: malformed %S" s kv))
           (Ok [])
  in
  let param key default = Option.value ~default (List.assoc_opt key params) in
  let known allowed =
    match List.find_opt (fun (k, _) -> not (List.mem k allowed)) params with
    | Some (k, _) ->
        Error (Printf.sprintf "adversary %s: unknown parameter %S" name k)
    | None -> Ok ()
  in
  let pct key default = float_of_int (param key default) /. 100.0 in
  match name with
  | "none" ->
      let* () = known [] in
      Ok None
  | "drop" ->
      let* () = known [ "p" ] in
      Ok (Some (Drop { p = pct "p" 20 }))
  | "dup" | "duplicate" ->
      let* () = known [ "p"; "copies" ] in
      Ok (Some (Duplicate { p = pct "p" 20; copies = max 1 (param "copies" 1) }))
  | "spike" ->
      let* () = known [ "p"; "factor" ] in
      Ok
        (Some
           (Spike
              { p = pct "p" 10; factor = float_of_int (max 1 (param "factor" 10)) }))
  | "reorder" ->
      let* () = known [ "p"; "window" ] in
      Ok
        (Some
           (Reorder
              { p = pct "p" 25; window = float_of_int (max 1 (param "window" 10)) }))
  | "partition" ->
      let* () = known [ "at"; "heal"; "left" ] in
      let at = float_of_int (param "at" 5)
      and heal = float_of_int (param "heal" 50)
      and left = max 1 (param "left" 1) in
      if heal <= at then
        Error
          (Printf.sprintf "adversary %s: heal=%g must exceed at=%g" name heal at)
      else Ok (Some (Partition { at; heal; blocks = Split_at left }))
  | "byz" ->
      (* Byzantine membership follows the same deterministic low-id
         convention as partition's [left=k]: processes 0..m-1 misbehave.
         [m=0] is the explicit "nobody is Byzantine" row of a grid. *)
      let* () = known [ "m"; "equiv"; "corrupt"; "forge" ] in
      let m = param "m" 1 in
      let flag key default = param key default <> 0 in
      let behaviour =
        {
          equivocate = flag "equiv" 1;
          corrupt = flag "corrupt" 0;
          forge = flag "forge" 0;
        }
      in
      let members =
        List.fold_left
          (fun acc p -> Rrfd.Pset.add p acc)
          Rrfd.Pset.empty
          (List.init m (fun p -> p))
      in
      Ok (Some (Byz { members; behaviour }))
  | _ ->
      Error
        (Printf.sprintf "unknown adversary %S, expected one of: %s" name
           spec_names)

let of_spec s =
  let s = String.trim s in
  if s = "" then Error "empty adversary spec"
  else
    let ( let* ) = Result.bind in
    let* atoms =
      String.split_on_char '+' s
      |> List.fold_left
           (fun acc atom ->
             let* acc = acc in
             let* parsed = parse_atom (String.trim atom) in
             match parsed with None -> Ok acc | Some a -> Ok (a :: acc))
           (Ok [])
    in
    Ok { spec = s; atoms = List.rev atoms }

let cuts blocks ~from ~to_ =
  match blocks with
  | Split_at k -> from < k <> (to_ < k)
  | Blocks bs ->
      let find p = List.find_opt (fun b -> Rrfd.Pset.mem p b) bs in
      (match (find from, find to_) with
      | Some bf, Some bt -> not (Rrfd.Pset.equal bf bt)
      | _ -> false)

let partitioned t ~now ~from ~to_ =
  List.exists
    (function
      | Partition { at; heal; blocks } ->
          now >= at && now < heal && cuts blocks ~from ~to_
      | _ -> false)
    t.atoms

let byzantine t ~n =
  List.fold_left
    (fun acc -> function
      | Byz { members; _ } -> Rrfd.Pset.union acc members
      | _ -> acc)
    Rrfd.Pset.empty t.atoms
  |> Rrfd.Pset.inter (Rrfd.Pset.full n)

let byz_behaviour t p =
  List.fold_left
    (fun acc atom ->
      match atom with
      | Byz { members; behaviour } when Rrfd.Pset.mem p members -> (
          match acc with
          | None -> Some behaviour
          | Some b ->
              Some
                {
                  equivocate = b.equivocate || behaviour.equivocate;
                  corrupt = b.corrupt || behaviour.corrupt;
                  forge = b.forge || behaviour.forge;
                })
      | _ -> acc)
    None t.atoms

(* Atoms consume the rng in list order; every branch draws the same
   number of variates whatever the earlier outcomes, except drops, which
   short-circuit the whole plan (also deterministically).  [Byz] atoms
   never touch the delay plan — lying is about content, not timing — so
   adding one leaves the benign delay stream bit-identical. *)
let plan t rng ~now ~from ~to_ ~delay ~redraw =
  if partitioned t ~now ~from ~to_ then []
  else if
    List.exists
      (function Drop { p } -> Dsim.Rng.float rng 1.0 < p | _ -> false)
      t.atoms
  then []
  else
    let delay =
      List.fold_left
        (fun d atom ->
          match atom with
          | Spike { p; factor } ->
              if Dsim.Rng.float rng 1.0 < p then d *. factor else d
          | Reorder { p; window } ->
              let jitter = Dsim.Rng.float rng window in
              if Dsim.Rng.float rng 1.0 < p then d +. jitter else d
          | Drop _ | Duplicate _ | Partition _ | Byz _ -> d)
        delay t.atoms
    in
    let extras =
      List.fold_left
        (fun acc atom ->
          match atom with
          | Duplicate { p; copies } ->
              let k = 1 + Dsim.Rng.int rng copies in
              if Dsim.Rng.float rng 1.0 < p then acc + k else acc
          | _ -> acc)
        0 t.atoms
    in
    let rec dup acc k = if k = 0 then acc else dup (redraw () :: acc) (k - 1) in
    delay :: List.rev (dup [] extras)
