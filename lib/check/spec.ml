(* Spec strings: [name] or [name:k1=v1,k2=v2].  Parameters are small
   non-negative ints. *)

let parse spec =
  match String.index_opt spec ':' with
  | None -> Ok (spec, [])
  | Some i ->
    let name = String.sub spec 0 i in
    let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
    let parse_pair acc pair =
      match acc with
      | Error _ as e -> e
      | Ok params -> (
        match String.split_on_char '=' pair with
        | [ key; value ] -> (
          match int_of_string_opt value with
          | Some v when v >= 0 -> Ok ((key, v) :: params)
          | _ -> Error (Printf.sprintf "%S: %S is not a non-negative int" spec value))
        | _ -> Error (Printf.sprintf "%S: expected key=value, got %S" spec pair))
    in
    List.fold_left parse_pair (Ok []) (String.split_on_char ',' rest)
    |> Result.map (fun params -> (name, params))

let param params key ~default =
  match List.assoc_opt key params with Some v -> v | None -> default

let predicate_names =
  "true, no-self, not-all-faulty, crash-closure, someone-seen, antisym, \
   omission:f=_, crash:f=_, async:f=_, async-mixed:f=_,t=_, shm:f=_, \
   shm-alt:f=_, snapshot:f=_, kset:k=_, eq5, detector-s, byz-round:f=_, \
   honest-kernel:k=_"

let predicate spec =
  Result.bind (parse spec) (fun (name, params) ->
      let f = param params "f" ~default:1 in
      let k = param params "k" ~default:2 in
      let t = param params "t" ~default:2 in
      match name with
      | "true" | "always" -> Ok Rrfd.Predicate.always
      | "no-self" -> Ok Rrfd.Predicate.no_self_suspicion
      | "not-all-faulty" -> Ok Rrfd.Predicate.not_all_faulty
      | "crash-closure" -> Ok Rrfd.Predicate.crash_closure
      | "someone-seen" -> Ok Rrfd.Predicate.someone_seen_by_all
      | "antisym" -> Ok Rrfd.Predicate.antisymmetric_misses
      | "omission" -> Ok (Rrfd.Predicate.omission ~f)
      | "crash" -> Ok (Rrfd.Predicate.crash ~f)
      | "async" -> Ok (Rrfd.Predicate.async_resilient ~f)
      | "async-mixed" -> Ok (Rrfd.Predicate.async_mixed ~f ~t)
      | "shm" -> Ok (Rrfd.Predicate.shared_memory ~f)
      | "shm-alt" -> Ok (Rrfd.Predicate.shared_memory_alt ~f)
      | "snapshot" -> Ok (Rrfd.Predicate.snapshot ~f)
      | "kset" -> Ok (Rrfd.Predicate.k_set ~k)
      | "eq5" | "identical" -> Ok Rrfd.Predicate.identical_views
      | "detector-s" | "dets" -> Ok Rrfd.Predicate.detector_s
      (* Byzantine-aware (E24): judge the fused silent∪lied history from
         Heard_of.to_byz_history rather than a plain heard-of complement. *)
      | "byz-round" -> Ok (Rrfd.Predicate.byzantine_round_bound ~f)
      | "honest-kernel" -> Ok (Rrfd.Predicate.eventual_honest_kernel ~k)
      | _ ->
        Error
          (Printf.sprintf "unknown predicate %S, expected one of: %s" spec
             predicate_names))

let generator_names =
  "omission:f=_, crash:f=_, async:f=_, async-mixed:f=_,t=_, shm:f=_, \
   snapshot:f=_, kset:k=_, antisym:f=_, eq5, detector-s"

let generator spec =
  Result.bind (parse spec) (fun (name, params) ->
      let f = param params "f" ~default:1 in
      let k = param params "k" ~default:2 in
      let t = param params "t" ~default:2 in
      let open Rrfd.Detector_gen in
      match name with
      | "omission" ->
        Ok ((fun rng ~n -> omission rng ~n ~f), Rrfd.Predicate.omission ~f)
      | "crash" -> Ok ((fun rng ~n -> crash rng ~n ~f), Rrfd.Predicate.crash ~f)
      | "async" ->
        Ok ((fun rng ~n -> async rng ~n ~f), Rrfd.Predicate.async_resilient ~f)
      | "async-mixed" ->
        Ok
          ( (fun rng ~n -> async_mixed rng ~n ~f ~t),
            Rrfd.Predicate.async_mixed ~f ~t )
      | "shm" ->
        Ok
          ( (fun rng ~n -> shared_memory rng ~n ~f),
            Rrfd.Predicate.shared_memory ~f )
      | "snapshot" | "iis" ->
        Ok ((fun rng ~n -> iis rng ~n ~f), Rrfd.Predicate.snapshot ~f)
      | "kset" -> Ok ((fun rng ~n -> k_set rng ~n ~k), Rrfd.Predicate.k_set ~k)
      | "antisym" ->
        Ok
          ( (fun rng ~n -> antisymmetric rng ~n ~f),
            Rrfd.Predicate.(
              conj (async_resilient ~f) antisymmetric_misses) )
      | "eq5" | "identical" ->
        Ok ((fun rng ~n -> identical rng ~n), Rrfd.Predicate.identical_views)
      | "detector-s" | "dets" ->
        Ok ((fun rng ~n -> detector_s rng ~n), Rrfd.Predicate.detector_s)
      | _ ->
        Error
          (Printf.sprintf "unknown generator %S, expected one of: %s" spec
             generator_names))

(* SUT names are the protocol catalog's: registering a protocol there is
   all it takes to make it checkable. *)
let sut_names = String.concat ", " Protocols.Catalog.names

let sut spec =
  match Protocols.Catalog.find spec with
  | Some p -> Ok p
  | None ->
    Error (Printf.sprintf "unknown sut %S, expected one of: %s" spec sut_names)

let property_names =
  "agreement, k-agreement:k=_, validity, termination, adopt-commit"

let property spec =
  Result.bind (parse spec) (fun (name, params) ->
      match name with
      | "agreement" -> Ok Property.agreement
      | "k-agreement" ->
        Ok (Property.k_agreement ~k:(param params "k" ~default:2))
      | "validity" -> Ok Property.validity
      | "termination" -> Ok Property.termination
      | "adopt-commit" -> Ok Property.adopt_commit_coherence
      | _ ->
        Error
          (Printf.sprintf "unknown property %S, expected one of: %s" spec
             property_names))

(* Adversary policies share the same [name:k=v,...] grammar; the parser
   lives in Msgnet.Adversary (msgnet cannot depend on check) and this is
   the vocabulary's front door for the CLI and artifacts. *)
let adversary_names = Msgnet.Adversary.spec_names

let adversary spec = Msgnet.Adversary.of_spec spec

let default_properties = Protocols.Catalog.properties
