type t = {
  k : int;
  rng : Dsim.Rng.t option;
  mutable anchors : int list; (* oldest first *)
}

let create ?rng ~k () =
  if k < 1 then invalid_arg "Kset_object.create: k must be ≥ 1";
  { k; rng; anchors = [] }

let k t = t.k

let propose t v =
  let adversary_says_adopt =
    match t.rng with None -> false | Some rng -> Dsim.Rng.bool rng
  in
  if
    List.length t.anchors < t.k
    && (t.anchors = [] || adversary_says_adopt)
    && not (List.mem v t.anchors)
  then t.anchors <- t.anchors @ [ v ];
  match t.rng with
  | None -> List.hd t.anchors
  | Some rng -> Dsim.Rng.choose rng t.anchors
