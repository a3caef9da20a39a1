open Nvm

(* The permutation action on a value: π permutes the entries of every
   pid-indexed vector (recursively) and fixes everything else.  A
   vector is a length-n tuple whose entries all share one structural
   skeleton (constructor shape, not values) — see [skel].  Both
   fingerprint functions below are defined against that action; the
   .mli explains why over-approximating vector-ness is safe.

   Every digest on the live path is a plain index loop over a local
   accumulator: the explorer computes them for every node's memo key,
   so they must not allocate. *)

(* Structural skeleton: constructor tags only, so [Bool true] and
   [Bool false] agree while [Int _] and [Tup _] differ.  Because the
   permutation action only ever permutes entries that share a skeleton,
   skeletons — and with them the vector classification — are invariant
   under the action, which is what lets [shape]/[slice] commute with
   it.  Without the skeleton check a 2-tuple like Algorithm 2's
   C = (value, flip-vector) would collide with a 2-process pid-vector
   and be sliced apart. *)
let rec skel ~n v =
  match (v : Value.t) with
  | Value.Unit -> 1
  | Value.Bool _ -> 2
  | Value.Int _ -> 3
  | Value.Str _ -> 4
  | Value.Bot -> 5
  | Value.Tup a ->
      let len = Array.length a in
      if len = 0 then 11
      else begin
        let k0 = skel ~n a.(0) in
        let h = ref (Value.mix 11 k0) and same = ref true in
        for i = 1 to len - 1 do
          let k = skel ~n a.(i) in
          h := Value.mix !h k;
          if k <> k0 then same := false
        done;
        if len = n && !same then Value.mix 7 k0 else !h
      end

let rec same_skel ~n a k0 i =
  i >= Array.length a || (skel ~n a.(i) = k0 && same_skel ~n a k0 (i + 1))

(* a length-n tuple whose entries share one skeleton; stops at the
   first entry that differs from entry 0 *)
let is_vec ~n a =
  Array.length a = n && n > 0 && same_skel ~n a (skel ~n a.(0)) 1

(* is [v] fixed by the transposition (p q)? *)
let rec swap_ok ~n ~p ~q v =
  match (v : Value.t) with
  | Value.Tup a ->
      ((not (is_vec ~n a)) || Value.equal a.(p) a.(q))
      && entries_swap_ok ~n ~p ~q a 0
  | Value.Unit | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Bot -> true

and entries_swap_ok ~n ~p ~q a i =
  i >= Array.length a
  || (swap_ok ~n ~p ~q a.(i) && entries_swap_ok ~n ~p ~q a (i + 1))

(* index of the first location at or after [i] private to [k], or
   [Mem.n_locs mem] *)
let rec next_private mem k i =
  if i >= Mem.n_locs mem then i
  else
    match (Mem.loc_by_id mem i).Loc.kind with
    | Loc.Private k' when k' = k -> i
    | Loc.Private _ | Loc.Shared -> next_private mem k (i + 1)

let read_id mem i = Mem.read mem (Mem.loc_by_id mem i)

(* the private blocks of [p] and [q] have equal length and equal
   values slot by slot; [i]/[j] walk the two blocks in step *)
let rec blocks_equal mem p q i j =
  let i = next_private mem p i and j = next_private mem q j in
  let nl = Mem.n_locs mem in
  if i >= nl || j >= nl then i >= nl && j >= nl
  else
    Value.equal (read_id mem i) (read_id mem j)
    && blocks_equal mem p q (i + 1) (j + 1)

(* every shared cell, and every private cell of [p] or [q] (nested
   vectors inside them must be fixed too), is fixed by (p q) *)
let rec cells_swap_ok ~n mem p q i =
  i >= Mem.n_locs mem
  ||
  let loc = Mem.loc_by_id mem i in
  (match loc.Loc.kind with
  | Loc.Private k when k <> p && k <> q -> true
  | Loc.Private _ | Loc.Shared -> swap_ok ~n ~p ~q (Mem.read mem loc))
  && cells_swap_ok ~n mem p q (i + 1)

let swap_invariant ~n mem p q =
  if p = q then invalid_arg "Sym.swap_invariant: p = q";
  cells_swap_ok ~n mem p q 0 && blocks_equal mem p q 0 0

(* [shape] digests the pid-independent part of a value (vectors
   contribute only a marker and their common skeleton), [slice ~pid]
   the view of one process (each vector contributes only its pid-th
   entry).  Both commute with the permutation action:
   shape (π v) = shape v  and  slice ~pid:(π p) (π v) = slice ~pid:p v,
   by induction on the value, using that π preserves skeletons and so
   the vector classification. *)
let rec shape ~n ~seed v =
  match (v : Value.t) with
  | Value.Tup a when is_vec ~n a -> Value.mix seed (Value.mix 0x5eed7 (skel ~n v))
  | Value.Tup a ->
      let h = ref (Value.mix seed 0x7ab1e) in
      for i = 0 to Array.length a - 1 do
        h := Value.mix !h (shape ~n ~seed:(seed + i) a.(i))
      done;
      !h
  | v -> Value.hash_seeded seed v

and slice ~n ~pid ~seed v =
  match (v : Value.t) with
  | Value.Tup a when is_vec ~n a ->
      Value.mix 0x511ce
        (Value.mix (shape ~n ~seed a.(pid)) (slice ~n ~pid ~seed a.(pid)))
  | Value.Tup a ->
      let h = ref (Value.mix seed 0x7ab1e) in
      for i = 0 to Array.length a - 1 do
        h := Value.mix !h (slice ~n ~pid ~seed:(seed + i) a.(i))
      done;
      !h
  | Value.Unit | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Bot -> 0

(* One process's view of a value: the pid-independent shape plus that
   process's slice.  Equivariant under the action —
   [self_key ~pid:(π p) (π v) = self_key ~pid:p v] — so it can rank
   processes π-consistently before any permutation is known. *)
let self_key ~n ~pid ~seed v =
  Value.mix (shape ~n ~seed v) (slice ~n ~pid ~seed v)

(* Digest of a value under an explicit relabeling: pid-indexed vectors
   contribute their entries in canonical rank order — entry [inv.(r)]
   at position [r] — instead of pid order, so two values that are
   images of each other under the permutation digest equally when
   [inv] carries the matching canonical orders.  Everything else is
   hashed as [Value.hash_seeded] does. *)
let rec hash_perm ~n ~inv ~seed v =
  match (v : Value.t) with
  | Value.Tup a when is_vec ~n a ->
      let h = ref (Value.mix seed 0x9ec70) in
      for r = 0 to n - 1 do
        h := Value.mix !h (hash_perm ~n ~inv ~seed a.(inv.(r)))
      done;
      !h
  | Value.Tup a ->
      let h = ref (Value.mix seed 0x7ab1e) in
      for i = 0 to Array.length a - 1 do
        h := Value.mix !h (hash_perm ~n ~inv ~seed:(seed + i) a.(i))
      done;
      !h
  | v -> Value.hash_seeded seed v

(* one fingerprint half from one seed; [shared_only] restricts to the
   shared cells (the paper's memory-equivalence ignores private NVM) *)
let half ?(shared_only = false) ~n ~seed mem =
  let views = Array.make n (seed lxor 0x1e3779b97f4a7c15) in
  let priv_slot = Array.make n 0 in
  let global = ref seed in
  let shared_ix = ref 0 in
  for i = 0 to Mem.n_locs mem - 1 do
    let loc = Mem.loc_by_id mem i in
    let v = Mem.read mem loc in
    match loc.Loc.kind with
    | Loc.Shared ->
        let tag = !shared_ix in
        incr shared_ix;
        global := Value.mix !global (Value.mix tag (shape ~n ~seed v));
        for p = 0 to n - 1 do
          views.(p) <-
            Value.mix views.(p) (Value.mix tag (slice ~n ~pid:p ~seed v))
        done
    | Loc.Private p when p < n && not shared_only ->
        (* slot-positional: the contract says every process allocates
           its private cells in the same order *)
        let slot = priv_slot.(p) in
        priv_slot.(p) <- slot + 1;
        views.(p) <-
          Value.mix views.(p)
            (Value.mix slot
               (Value.mix (shape ~n ~seed v) (slice ~n ~pid:p ~seed v)))
    | Loc.Private _ -> ()
  done;
  (* commutative fold over the per-process views: sort, then chain *)
  Array.sort Int.compare views;
  Array.fold_left Value.mix !global views

let canonical_fingerprint ~n mem = (half ~n ~seed:1 mem, half ~n ~seed:2 mem)

let canonical_fingerprint_shared ~n mem =
  (half ~shared_only:true ~n ~seed:1 mem, half ~shared_only:true ~n ~seed:2 mem)

(* ------------------------------------------------------------------ *)
(* Orbit sizes.

   The stabiliser of a shared configuration under the S_N action is
   exactly the Young subgroup of the partition of pids into classes
   with pairwise-equal "columns" (the tuple of p-th entries over every
   shared vector, recursively): a permutation fixes every vector iff it
   permutes pids only within such classes.  Column equality of p and q
   is precisely [swap_ok] over all shared cells, and it is transitive,
   so |orbit| = N! / prod(class sizes!), computed exactly.

   [same n x p q] decides column equality over the configuration [x];
   it is passed with [x] rather than closed over it so the live path
   allocates nothing.  Classes are collected representative-first: the
   least pid of each class is its representative, and every later
   unassigned pid equal to it joins it (transitivity makes the classes
   independent of the order of comparisons).  [assigned] is a bitmask
   over pids. *)

let rec fact k = if k <= 1 then 1 else k * fact (k - 1)

let orbit_size_classes ~n same x =
  if n > 20 then invalid_arg "Sym.orbit_size: N! overflows past N = 20";
  let assigned = ref 0 and denom = ref 1 in
  for r = 0 to n - 1 do
    if !assigned land (1 lsl r) = 0 then begin
      let size = ref 1 in
      for p = r + 1 to n - 1 do
        if !assigned land (1 lsl p) = 0 && same n x p r then begin
          assigned := !assigned lor (1 lsl p);
          incr size;
          denom := !denom * !size
        end
      done
    end
  done;
  fact n / !denom

let rec shared_swap_ok n mem p q i =
  i >= Mem.n_locs mem
  ||
  let loc = Mem.loc_by_id mem i in
  ((not (Loc.is_shared loc)) || swap_ok ~n ~p ~q (Mem.read mem loc))
  && shared_swap_ok n mem p q (i + 1)

let live_same n mem p q = shared_swap_ok n mem p q 0

let orbit_size_shared ~n mem = orbit_size_classes ~n live_same mem

(* ------------------------------------------------------------------ *)
(* Snapshot-side variants, for Config_set's canonical Exact audit mode:
   same digests/weights as the live versions, computed from
   [Mem.snapshot_cells] arrays instead of a live store. *)

let cells_half ~shared_only ~n ~seed cells =
  let views = Array.make n (seed lxor 0x1e3779b97f4a7c15) in
  let priv_slot = Array.make n 0 in
  let global = ref seed in
  let shared_ix = ref 0 in
  Array.iter
    (fun ((loc : Loc.t), v) ->
      match loc.Loc.kind with
      | Loc.Shared ->
          let tag = !shared_ix in
          incr shared_ix;
          global := Value.mix !global (Value.mix tag (shape ~n ~seed v));
          for p = 0 to n - 1 do
            views.(p) <-
              Value.mix views.(p) (Value.mix tag (slice ~n ~pid:p ~seed v))
          done
      | Loc.Private p when p < n && not shared_only ->
          let slot = priv_slot.(p) in
          priv_slot.(p) <- slot + 1;
          views.(p) <-
            Value.mix views.(p)
              (Value.mix slot
                 (Value.mix (shape ~n ~seed v) (slice ~n ~pid:p ~seed v)))
      | Loc.Private _ -> ())
    cells;
  Array.sort compare views;
  Array.fold_left Value.mix !global views

let cells_fingerprint_shared ~n cells =
  ( cells_half ~shared_only:true ~n ~seed:1 cells,
    cells_half ~shared_only:true ~n ~seed:2 cells )

let cells_same n cells p q =
  Array.for_all
    (fun ((loc : Loc.t), v) -> (not (Loc.is_shared loc)) || swap_ok ~n ~p ~q v)
    cells

let cells_orbit_size_shared ~n cells = orbit_size_classes ~n cells_same cells

(* the action of one permutation on a value: entry r of a vector comes
   from entry [perm.(r)] (the direction is irrelevant to the callers —
   they quantify over all of S_N) *)
let rec permute ~n ~perm v =
  match (v : Value.t) with
  | Value.Tup a when is_vec ~n a ->
      Value.Tup (Array.init n (fun r -> permute ~n ~perm a.(perm.(r))))
  | Value.Tup a -> Value.Tup (Array.map (permute ~n ~perm) a)
  | Value.Unit | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Bot -> v

let related_shared ~n ca cb =
  let shared cells =
    Array.to_list cells |> List.filter (fun ((l : Loc.t), _) -> Loc.is_shared l)
  in
  let sa = shared ca and sb = shared cb in
  List.length sa = List.length sb
  && List.for_all2 (fun ((la : Loc.t), _) ((lb : Loc.t), _) -> la.Loc.id = lb.Loc.id) sa sb
  &&
  (* try every permutation of 0..n-1 (audit/test path: n is tiny) *)
  let perm = Array.make n (-1) in
  let used = Array.make n false in
  let rec go r =
    if r = n then
      List.for_all2
        (fun (_, va) (_, vb) -> Value.equal (permute ~n ~perm va) vb)
        sa sb
    else
      let rec try_p p =
        p < n
        && ((not used.(p))
            && begin
                 perm.(r) <- p;
                 used.(p) <- true;
                 let ok = go (r + 1) in
                 used.(p) <- false;
                 ok
               end
           || try_p (p + 1))
      in
      try_p 0
  in
  go 0
