type report = {
  n : int;
  undecided : Rrfd.Proc.t list;
  distinct_values : int list;
  invalid : (Rrfd.Proc.t * int) list;
}

let evaluate ~inputs ~decisions =
  let n = Array.length inputs in
  if Array.length decisions <> n then
    invalid_arg "Agreement.evaluate: length mismatch";
  let undecided = ref [] and values = ref [] and invalid = ref [] in
  for i = n - 1 downto 0 do
    match decisions.(i) with
    | None -> undecided := i :: !undecided
    | Some v ->
      values := v :: !values;
      if not (Array.exists (Int.equal v) inputs) then invalid := (i, v) :: !invalid
  done;
  let distinct_values = List.sort_uniq Int.compare !values in
  { n; undecided = !undecided; distinct_values; invalid = !invalid }

let distinct_decisions ~decisions =
  Array.to_list decisions
  |> List.filter_map Fun.id
  |> List.sort_uniq Int.compare
  |> List.length

let check ?(allow_undecided = Rrfd.Pset.empty) ~k ~inputs decisions =
  let r = evaluate ~inputs ~decisions in
  let blocking =
    List.filter (fun p -> not (Rrfd.Pset.mem p allow_undecided)) r.undecided
  in
  match (blocking, r.invalid) with
  | p :: _, _ -> Some (Printf.sprintf "termination: p%d never decided" p)
  | [], (p, v) :: _ ->
    Some (Printf.sprintf "validity: p%d decided %d, which is nobody's input" p v)
  | [], [] ->
    let distinct = List.length r.distinct_values in
    if distinct > k then
      Some
        (Printf.sprintf "agreement: %d distinct values decided, bound is %d"
           distinct k)
    else None
