module Make (V : sig
  type t
end) =
struct
  type cell = { value : V.t; seq : int; embedded : V.t option array }

  module E = Exec.Make (struct
    type t = cell
  end)

  type outcome = { steps : int; steps_per_process : int array }

  (* One run at a time; [run] installs the segment count. *)
  let current_n = ref 0

  let collect () =
    let n = !current_n in
    Array.init n (fun q -> E.read q)

  let same_seq a b =
    match (a, b) with
    | None, None -> true
    | Some x, Some y -> x.seq = y.seq
    | None, Some _ | Some _, None -> false

  let values c = Array.map (Option.map (fun cell -> cell.value)) c

  let scan () =
    let n = !current_n in
    if n = 0 then invalid_arg "Snapshot.scan: not inside a run";
    let moved = Array.make n 0 in
    let rec attempt () =
      let c1 = collect () in
      let c2 = collect () in
      let clean = ref true in
      for q = 0 to n - 1 do
        if not (same_seq c1.(q) c2.(q)) then begin
          clean := false;
          moved.(q) <- moved.(q) + 1
        end
      done;
      if !clean then values c2
      else
        (* A process seen moving twice performed a whole update — and hence
           a whole embedded scan — inside our interval: borrow it. *)
        let borrowable = ref None in
        for q = 0 to n - 1 do
          if !borrowable = None && moved.(q) >= 2 then
            match c2.(q) with
            | Some cell -> borrowable := Some cell.embedded
            | None -> ()
        done;
        match !borrowable with Some view -> Array.copy view | None -> attempt ()
    in
    attempt ()

  let update ~proc v =
    let n = !current_n in
    if n = 0 then invalid_arg "Snapshot.update: not inside a run";
    let embedded = scan () in
    let seq = match E.read proc with Some c -> c.seq + 1 | None -> 1 in
    E.write proc { value = v; seq; embedded }

  let run ~n ~schedule body =
    current_n := n;
    Fun.protect
      ~finally:(fun () -> current_n := 0)
      (fun () ->
        let o =
          E.run ~enforce_swmr:Fun.id ~n_procs:n ~n_locs:n ~schedule body
        in
        { steps = o.E.steps; steps_per_process = o.E.steps_per_process })
end
