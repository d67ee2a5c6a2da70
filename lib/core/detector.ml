type t = {
  name : string;
  next : Fault_history.t -> Pset.t array;
}

let name d = d.name

let make ~name next = { name; next }

let next d history = d.next history

let none =
  make ~name:"failure-free" (fun h ->
      Array.make (Fault_history.n h) Pset.empty)

let of_schedule ?after rounds =
  let table = Array.of_list rounds in
  let fallback h =
    match after with
    | Some d -> d
    | None ->
      if Array.length table > 0 then table.(Array.length table - 1)
      else Array.make (Fault_history.n h) Pset.empty
  in
  make ~name:"schedule" (fun h ->
      let r = Fault_history.rounds h in
      if r < Array.length table then table.(r) else fallback h)

let of_history history =
  of_schedule
    ~after:(Array.make (Fault_history.n history) Pset.empty)
    (List.init (Fault_history.rounds history) (fun r ->
         Fault_history.round_sets history ~round:(r + 1)))

let constant ~n:_ d = make ~name:"constant" (fun _ -> d)

let map ~name f d = make ~name (fun h -> f h (d.next h))

let recording d =
  let log = ref [] in
  let wrapped =
    make ~name:(d.name ^ "+recorded") (fun h ->
        let round = d.next h in
        (* Copy: generators may reuse their output array as scratch. *)
        log := Array.copy round :: !log;
        round)
  in
  (wrapped, fun () -> List.rev !log)
