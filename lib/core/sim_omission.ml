let budget ~f ~k =
  if k <= 0 || f < k then invalid_arg "Sim_omission.budget: need f ≥ k > 0";
  f / k

type 'out result = {
  execution : 'out Substrate.execution;
  omission_violation : string option;
}

let simulate ~n ~f ~k ~algorithm ~detector () =
  let rounds = budget ~f ~k in
  let execution =
    Engine.run ~n ~max_rounds:rounds ~check:(Predicate.snapshot ~f:k)
      ~stop_when_decided:false ~algorithm ~detector ()
  in
  let omission_violation =
    match execution.Substrate.violation with
    | Some v -> Some ("asynchronous side broke its own predicate: " ^ v)
    | None -> Predicate.explain (Predicate.omission ~f) execution.induced
  in
  { execution; omission_violation }
