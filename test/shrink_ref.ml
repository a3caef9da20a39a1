(* Reference shrinker: greedy single-deletion passes until no deletion
   preserves the violation, each candidate run from scratch through
   [Shrink.reproduces] and memoised on its decision list (so [attempts]
   counts distinct candidates).  [Shrink.minimise], which evaluates
   candidates by mark / run-tail / rewind on one undo session, must
   return the identical result — decisions, history, message and
   attempts (test_shrink.ml). *)

let minimise ~mk ~workloads ?lin_engine decisions =
  let attempts = ref 0 in
  let seen = Hashtbl.create 64 in
  let try_candidate ds =
    match Hashtbl.find_opt seen ds with
    | Some r -> r
    | None ->
        incr attempts;
        let r = Modelcheck.Shrink.reproduces ~mk ~workloads ?lin_engine ds in
        Hashtbl.replace seen ds r;
        r
  in
  let rec shrink cur (history, msg) =
    let rec first k =
      if k >= List.length cur then None
      else
        let candidate = List.filteri (fun i _ -> i <> k) cur in
        match try_candidate candidate with
        | Some hm -> Some (candidate, hm)
        | None -> first (k + 1)
    in
    match first 0 with
    | Some (candidate, hm) -> shrink candidate hm
    | None ->
        { Modelcheck.Shrink.decisions = cur; history; msg; attempts = !attempts }
  in
  Option.map (shrink decisions) (try_candidate decisions)
