(* Tests for the symmetry-canonical digests of [Modelcheck.Sym] and the
   explorer memo keys built on them:

   - oracle: the allocation-free digests agree bit for bit with the
     reference implementation in sym_ref.ml on random nested values
     (homogeneous pid vectors, Algorithm 2's (value, flip-vector) pairs,
     vectors of vectors, heterogeneous tuples) and random stores, at
     N = 1..6;
   - allocation: [hash_perm] and [self_key] allocate nothing per call;
   - golden: the [`Dpor_sym_memo] search of the uniform CAS chain
     reports exactly its recorded counters, so any change to the memo
     key (a digest bit, a relabeling, the canonical order) shows up as
     a counter change here before it reaches the benchmarks. *)

open Nvm
open History
module Sym = Modelcheck.Sym
module Explore = Modelcheck.Explore
module G = QCheck.Gen

(* --- generators ----------------------------------------------------- *)

(* low-entropy scalars, so vector entries and private blocks often
   coincide and orbit classes / swap invariance are non-trivial *)
let gen_scalar =
  G.frequency
    [
      (1, G.return Value.Unit);
      (1, G.return Value.Bot);
      (3, G.map (fun b -> Value.Bool b) G.bool);
      (3, G.map (fun k -> Value.Int k) (G.int_range (-1) 2));
      (1, G.map (fun s -> Value.Str s) (G.oneofl [ ""; "a"; "b" ]));
    ]

let tup_of_list l = Value.Tup (Array.of_list l)

(* a fresh value with the skeleton of [v]: scalars are redrawn within
   their constructor, tuples entry by entry *)
let rec gen_like v =
  match (v : Value.t) with
  | Value.Unit | Value.Bot -> G.return v
  | Value.Bool _ -> G.map (fun b -> Value.Bool b) G.bool
  | Value.Int _ -> G.map (fun k -> Value.Int k) (G.int_range 0 2)
  | Value.Str _ -> G.map (fun s -> Value.Str s) (G.oneofl [ "a"; "b" ])
  | Value.Tup a ->
      G.map tup_of_list (G.flatten_l (List.map gen_like (Array.to_list a)))

(* a homogeneous length-n vector whose entries share [proto]'s skeleton *)
let gen_vec ~n proto =
  G.map tup_of_list (G.flatten_l (List.init n (fun _ -> gen_like proto)))

let rec gen_value ~n depth =
  if depth = 0 then gen_scalar
  else
    let sub = gen_value ~n (depth - 1) in
    G.frequency
      [
        (3, gen_scalar);
        (3, G.(sub >>= gen_vec ~n));
        (1, G.map (fun v -> Value.Tup (Array.make n v)) sub);
        ( 2,
          (* Algorithm 2's C = (value, flip-vector) *)
          G.map2
            (fun v bits ->
              Value.pair (Value.Int v)
                (tup_of_list (List.map (fun b -> Value.Bool b) bits)))
            (G.int_range 0 3) (G.list_repeat n G.bool) );
        (1, G.(gen_value ~n 0 >>= gen_vec ~n >>= gen_vec ~n));
        (2, G.(int_range 0 (n + 1) >>= fun len -> map tup_of_list (list_repeat len sub)));
      ]

let gen_perm n =
  G.map
    (fun keys ->
      let a = Array.init n Fun.id in
      let keys = Array.of_list keys in
      Array.sort (fun x y -> compare keys.(x) keys.(y)) a;
      a)
    (G.list_repeat n G.nat)

(* a store: shared cells, then one private block per pid (each block
   either a copy of a common template or freshly drawn, so transposed
   blocks often agree), then more shared cells, and a stray private
   cell owned by pid [n], which the canonical digests must ignore *)
type store = { s_n : int; s_cells : (Loc.kind * Value.t) list }

let gen_store =
  G.(
    int_range 1 6 >>= fun n ->
    let v = gen_value ~n 3 in
    list_size (int_range 0 3) v >>= fun pre ->
    list_size (int_range 0 3) v >>= fun post ->
    int_range 0 2 >>= fun slots ->
    list_repeat slots v >>= fun template ->
    list_repeat n (pair bool (list_repeat slots v)) >>= fun blocks ->
    bool >>= fun stray ->
    let shared = List.map (fun v -> (Loc.Shared, v)) in
    let privs =
      List.concat
        (List.mapi
           (fun p (copy, own) ->
             List.map
               (fun v -> (Loc.Private p, v))
               (if copy then template else own))
           blocks)
    in
    let stray = if stray then [ (Loc.Private n, Value.Int 7) ] else [] in
    return { s_n = n; s_cells = shared pre @ privs @ shared post @ stray })

let build_mem st =
  let mem = Mem.create () in
  List.iteri
    (fun i (kind, v) ->
      ignore (Mem.alloc mem ~name:(Printf.sprintf "c%d" i) ~kind v : Loc.t))
    st.s_cells;
  mem

let print_store st =
  Printf.sprintf "N=%d [%s]" st.s_n
    (String.concat "; "
       (List.map
          (fun (kind, v) ->
            (match kind with
            | Loc.Shared -> "S "
            | Loc.Private p -> Printf.sprintf "P%d " p)
            ^ Value.to_string v)
          st.s_cells))

(* --- oracle --------------------------------------------------------- *)

let rec iter_tuples f v =
  match (v : Value.t) with
  | Value.Tup a ->
      f a;
      Array.iter (iter_tuples f) a
  | Value.Unit | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Bot -> ()

let agree what a b =
  if a <> b then QCheck.Test.fail_reportf "%s: %d <> reference %d" what a b

let value_digests_agree ~n ~inv ~seed v =
  agree "skel" (Sym.skel ~n v) (Sym_ref.skel ~n v);
  iter_tuples
    (fun a ->
      if Sym.is_vec ~n a <> Sym_ref.is_vec ~n a then
        QCheck.Test.fail_reportf "is_vec differs on %s"
          (Value.to_string (Value.Tup a)))
    v;
  agree "shape" (Sym.shape ~n ~seed v) (Sym_ref.shape ~n ~seed v);
  for pid = 0 to n - 1 do
    agree "slice" (Sym.slice ~n ~pid ~seed v) (Sym_ref.slice ~n ~pid ~seed v);
    agree "self_key"
      (Sym.self_key ~n ~pid ~seed v)
      (Sym_ref.self_key ~n ~pid ~seed v)
  done;
  agree "hash_perm"
    (Sym.hash_perm ~n ~inv ~seed v)
    (Sym_ref.hash_perm ~n ~inv ~seed v)

let prop_digests_match_reference =
  let gen =
    G.(
      gen_store >>= fun st ->
      gen_perm st.s_n >>= fun inv ->
      int_range 0 9 >|= fun seed -> (st, inv, seed))
  in
  let print (st, inv, seed) =
    Printf.sprintf "%s inv=[%s] seed=%d" (print_store st)
      (String.concat "," (Array.to_list (Array.map string_of_int inv)))
      seed
  in
  QCheck.Test.make ~count:300 ~name:"Sym digests agree with the reference"
    (QCheck.make ~print gen) (fun (st, inv, seed) ->
      let n = st.s_n in
      List.iter (fun (_, v) -> value_digests_agree ~n ~inv ~seed v) st.s_cells;
      let mem = build_mem st in
      let pair what (a1, b1) (a2, b2) =
        agree (what ^ " (half 1)") a1 a2;
        agree (what ^ " (half 2)") b1 b2
      in
      pair "canonical_fingerprint"
        (Sym.canonical_fingerprint ~n mem)
        (Sym_ref.canonical_fingerprint ~n mem);
      pair "canonical_fingerprint_shared"
        (Sym.canonical_fingerprint_shared ~n mem)
        (Sym_ref.canonical_fingerprint_shared ~n mem);
      agree "orbit_size_shared"
        (Sym.orbit_size_shared ~n mem)
        (Sym_ref.orbit_size_shared ~n mem);
      for p = 0 to n - 1 do
        for q = 0 to n - 1 do
          if p <> q
             && Sym.swap_invariant ~n mem p q
                <> Sym_ref.swap_invariant ~n mem p q
          then QCheck.Test.fail_reportf "swap_invariant %d %d differs" p q
        done
      done;
      true)

(* --- allocation ----------------------------------------------------- *)

(* same regime split as the Bitset test in test_hist.ml: a real
   per-call allocation costs at least 2 words per iteration, the
   harness a few hundred words in total *)
let test_digests_allocation_free () =
  let n = 5 in
  let c = Value.pair (Value.Int 3) (Value.bool_vec n) in
  let c = Value.set_nth c 1 (Value.set_nth (Value.nth c 1) 2 (Value.Bool true)) in
  let inv = [| 4; 2; 0; 3; 1 |] in
  let iters = 10_000 in
  let budget = float_of_int iters /. 2.0 in
  let sink = ref 0 in
  let check_no_alloc what f =
    let (), d = Dtc_util.Alloc_stats.measure f in
    let words = Dtc_util.Alloc_stats.allocated_words d in
    if words > budget then
      Alcotest.failf "%s allocated %.0f words over %d calls" what words iters
  in
  check_no_alloc "hash_perm" (fun () ->
      for _ = 1 to iters do
        sink := !sink lxor Sym.hash_perm ~n ~inv ~seed:7 c
      done);
  check_no_alloc "self_key" (fun () ->
      for i = 1 to iters do
        sink := !sink lxor Sym.self_key ~n ~pid:(i mod n) ~seed:5 c
      done);
  Alcotest.(check int)
    "hash_perm agrees with the reference on C"
    (Sym_ref.hash_perm ~n ~inv ~seed:7 c)
    (Sym.hash_perm ~n ~inv ~seed:7 c)

(* --- golden counters ------------------------------------------------ *)

(* the uniform CAS chain: every process runs cas(0,1); ...; cas(N-1,N) *)
let uniform_chain n =
  Array.init n (fun _ ->
      List.init n (fun k -> Spec.cas_op (Value.Int k) (Value.Int (k + 1))))

let test_canonical_memo_golden () =
  List.iter
    (fun (n, nodes, executions, memo_hits, configs) ->
      let out =
        Explore.explore
          ~mk:(fun () -> Test_support.mk_dcas ~n ())
          ~workloads:(uniform_chain n)
          {
            Explore.default_config with
            switch_budget = 2;
            crash_budget = 0;
            reduction = `Dpor_sym_memo;
          }
      in
      let check what = Alcotest.(check int) (Printf.sprintf "N=%d %s" n what) in
      check "nodes" nodes out.Explore.nodes;
      check "executions" executions out.Explore.executions;
      check "memo hits" memo_hits out.Explore.metrics.Explore.dedup_hits;
      check "configurations" configs out.Explore.distinct_shared_configs;
      check "violations" 0 out.Explore.total_violations;
      Alcotest.(check bool) (Printf.sprintf "N=%d not capped" n) false
        out.Explore.capped)
    [ (3, 13228, 555, 213, 12); (4, 108483, 2630, 852, 27) ]

let suites =
  [
    ( "modelcheck.sym",
      [
        (* a fixed seed keeps tier-1 deterministic *)
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 13 |])
          prop_digests_match_reference;
        Alcotest.test_case "hash_perm/self_key allocation-free" `Quick
          test_digests_allocation_free;
        Alcotest.test_case "canonical memo golden counters" `Quick
          test_canonical_memo_golden;
      ] );
  ]
