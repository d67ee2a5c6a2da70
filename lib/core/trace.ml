type 'out round = {
  number : int;
  emissions : string array;
  fault_sets : Pset.t array;
  new_decisions : (Proc.t * 'out) list;
}

type 'out t = {
  n : int;
  rounds : 'out round list;
  execution : 'out Substrate.execution;
}

(* Run the engine for the execution, then replay the execution from the
   recorded fault history to render each round's emissions — algorithms
   are deterministic, so the replay reproduces the run exactly. *)
let record ~n ?max_rounds ?check ?stop_when_decided ~pp_msg ~algorithm
    ~detector () =
  let execution =
    Engine.run ~n ?max_rounds ?check ?stop_when_decided ~algorithm ~detector ()
  in
  let history = execution.Substrate.induced in
  let states = Array.init n (fun i -> algorithm.Algorithm.init ~n i) in
  let decided = Array.make n false in
  let view = View.create ~n in
  let rounds = ref [] in
  for round = 1 to Fault_history.rounds history do
    let fault_sets = Fault_history.round_sets history ~round in
    let emitted = Array.map (fun s -> algorithm.Algorithm.emit s ~round) states in
    let emissions = Array.map (fun m -> Format.asprintf "%a" pp_msg m) emitted in
    for i = 0 to n - 1 do
      View.set view ~msgs:emitted ~faulty:fault_sets.(i);
      states.(i) <- algorithm.Algorithm.deliver states.(i) ~round ~view
    done;
    let new_decisions = ref [] in
    for i = n - 1 downto 0 do
      if not decided.(i) then
        match algorithm.Algorithm.decide states.(i) with
        | Some v ->
          decided.(i) <- true;
          new_decisions := (i, v) :: !new_decisions
        | None -> ()
    done;
    rounds :=
      { number = round; emissions; fault_sets; new_decisions = !new_decisions }
      :: !rounds
  done;
  { n; rounds = List.rev !rounds; execution }

let pp pp_out ppf t =
  List.iter
    (fun r ->
      Format.fprintf ppf "@[<v 2>round %d:@," r.number;
      Array.iteri
        (fun i emission ->
          Format.fprintf ppf "p%d emits %s, suspects %a@," i emission Pset.pp
            r.fault_sets.(i))
        r.emissions;
      List.iter
        (fun (p, v) -> Format.fprintf ppf "p%d DECIDES %a@," p pp_out v)
        r.new_decisions;
      Format.fprintf ppf "@]@,")
    t.rounds
