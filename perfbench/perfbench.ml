(* perfbench — the repository benchmark.

   One invocation runs one named workload for one seed and a fixed,
   seed-determined amount of work, checks the outputs, and prints one
   JSON result line last: the end-to-end metrics (untraced run) or the
   per-layer metrics (traced run).  Every layer is timed from outside,
   around calls to its public functions; no library code is
   instrumented.  See perfbench/NOTES.md for the workloads, the metric
   → layer → workload map and the noise facts the design follows.

     perfbench.exe run --workload W --seed S --seconds T --trace 0|1
                       [--scale full|tiny] [--out-dir DIR]
     perfbench.exe setup-probe --workload W --seed S --seconds T
                       [--scale full|tiny] [--out-dir DIR]

   [setup-probe] is the cold set-up measurement the run spawns between
   its work blocks: a fresh process builds the workload's object, spec,
   scratch session and journal and runs the warm-up, then prints the
   elapsed seconds. *)

open Nvm
open History
open Sched
module Explore = Modelcheck.Explore
module Alloc = Dtc_util.Alloc_stats

(* ------------------------------------------------------------------ *)
(* clock, statistics, process facts *)

let now () = Monotonic_clock.now ()
let ns_since t0 = Int64.to_float (Int64.sub (now ()) t0)
let s_since t0 = ns_since t0 *. 1e-9

let mean a =
  let n = Array.length a in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. a /. float n

(* nearest-rank quantile *)
let quantile a q =
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then 0.
  else s.(max 0 (min (n - 1) (int_of_float (ceil (q *. float n)) - 1)))

let ratio a b = if b = 0. then 0. else a /. b

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let live_mb_after_full_major () =
  Gc.full_major ();
  float ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.

(* ------------------------------------------------------------------ *)
(* checks: a failed check makes the result [correct: false] *)

let check_errors = ref 0

let require cond msg =
  if not cond then begin
    incr check_errors;
    Printf.printf "CHECK FAILED: %s\n%!" msg
  end

(* ------------------------------------------------------------------ *)
(* workloads and their fixed sizes *)

type workload = Torture_cas | Torture_queue | Certify_cas
type scale = Full | Tiny

let workload_names =
  [
    ("torture_cas", Torture_cas);
    ("torture_queue", Torture_queue);
    ("certify_cas", Certify_cas);
  ]

let workload_name w = fst (List.find (fun (_, v) -> v = w) workload_names)

(* Trials per requested second, sized so that a run's trials take about
   [--seconds] on one domain of a 2-vCPU Xeon VM.  The trial count is a
   pure function of (workload, scale, seconds): the run does this much
   work however fast the machine happens to be. *)
let torture_trials w scale ~seconds =
  match scale with
  | Tiny -> 150
  | Full -> seconds * (match w with Torture_queue -> 900 | _ -> 2000)

(* Set-up warm-ups: every code path of a trial (or of the explorer), the
   intern table's common values.  They are kept short because a short
   cold set-up is what the fastest-of-many estimate below holds steady
   (NOTES.md, N7). *)
let warmup_trials = 8
let warmup_certify_n = 2

(* work blocks of the untraced torture run; set-up probes follow each *)
let torture_blocks = function Full -> 8 | Tiny -> 2
let certify_n = function Full -> 5 | Tiny -> 3
let certify_reps scale ~seconds =
  match scale with Tiny -> 2 | Full -> max 3 (seconds / 5)

(* a safety cap well above the certified search's need (N=5: ~552k
   nodes); hitting it fails the certification *)
let certify_node_budget = function Full -> 2_000_000 | Tiny -> 100_000

(* cold set-up probes per run, spread over its work blocks *)
let setup_samples = 24

(* [setup_s] is the fastest cold set-up of the run: memory contention
   from other tenants only ever slows a sample down, and the median of a
   run's samples follows the contention level (NOTES.md, N1 and N7). *)
let setup_of samples = List.fold_left min infinity samples

(* the warm-up campaign's root seed: the same for every run, so set-up
   does the same work whatever the measured seed *)
let warm_root = 0x3c6ef372

(* ------------------------------------------------------------------ *)
(* torture: the object, spec and workload exactly as
   [detect_cli torture -o dcas -p 4 -k 8] / [-o dqueue -p 3 -k 3] build
   them (atomic fault model, private-cache machine, CLI defaults) *)

let torture_shape = function
  | Torture_cas -> ("dcas", 4, 8)
  | Torture_queue -> ("dqueue", 3, 3)
  | Certify_cas -> invalid_arg "torture_shape"

let torture_spec w =
  let label, procs, ops = torture_shape w in
  let mk () =
    let m = Runtime.Machine.create ~model:Runtime.Machine.Private_cache () in
    let inst =
      match w with
      | Torture_queue ->
          Detectable.Dqueue.instance
            (Detectable.Dqueue.create ~persist:false m ~n:procs ~capacity:256)
      | _ ->
          Detectable.Dcas.instance
            (Detectable.Dcas.create ~persist:false m ~n:procs
               ~init:(Value.Int 0))
    in
    (m, inst)
  in
  let workloads_of_seed s =
    let prng = Dtc_util.Prng.create s in
    match w with
    | Torture_queue -> Workload.queue prng ~procs ~ops_per_proc:ops ~values:5
    | _ -> Workload.cas prng ~procs ~ops_per_proc:ops ~values:3
  in
  Torture.default_spec_of ~policy:Session.Retry ~crash_prob:0.05
    ~max_crashes:3 ~max_steps:100_000 ~lin_engine:`Incremental
    ~fault:Fault_model.default ~watchdog:10_000 ~label ~mk ~workloads_of_seed
    ()

let replay_command w ~root ~index =
  let label, procs, ops = torture_shape w in
  Printf.sprintf
    "dune exec bin/detect_cli.exe -- torture -o %s -p %d -k %d -s %d \
     --trials %d  (trial %d is the last one it runs)"
    label procs ops root (index + 1) index

(* only torture_cas journals, as [--checkpoint] users do *)
let journal_path w ~out_dir ~tag =
  match w with
  | Torture_cas -> Some (Filename.concat out_dir ("journal-" ^ tag ^ ".jsonl"))
  | _ -> None

(* Cold set-up up to the first timed unit: spec, scratch session,
   journal (header written) and the warm-up trials that fill the intern
   table and the caches. *)
let torture_setup w ~root ~trials ~journal =
  let t0 = now () in
  let spec = torture_spec w in
  let scratch = Session.make_scratch () in
  let journal =
    Option.map
      (fun path ->
        Torture.Journal.create ~path ~resume:false spec ~root_seed:root ~trials)
      journal
  in
  for i = 0 to warmup_trials - 1 do
    ignore (Torture.run_trial spec ~scratch ~root:warm_root ~index:i : Torture.trial)
  done;
  (spec, scratch, journal, s_since t0)

let dummy_trial =
  {
    Torture.t_seed = 0;
    t_fault_seed = 0;
    t_steps = 0;
    t_crashes = 0;
    t_crash_steps = [];
    t_rec_returned = 0;
    t_rec_failed = 0;
    t_bits = 0;
    t_verdict = Torture.V_ok;
    t_trace = [];
  }

(* The untraced closed loop: trial [i] is [run_trial] plus, when
   journaling, its [trial_line] appended to the journal — what
   [Torture.run] does per trial on one domain.  [between ()] runs after
   each block, outside every timed and metered region.  Returns the
   records, per-trial latencies and block walls (s) and the blocks'
   allocation. *)
let torture_pass spec ~scratch ~journal ~root ~trials ~blocks ~between =
  let arr = Array.make trials dummy_trial in
  let lat = Array.make trials 0. in
  let walls = Array.make blocks 0. in
  let alloc = ref Alloc.zero in
  for b = 0 to blocks - 1 do
    let lo = b * trials / blocks and hi = (b + 1) * trials / blocks in
    let a0 = Alloc.snap () in
    let tb = now () in
    for i = lo to hi - 1 do
      let t0 = now () in
      let tr = Torture.run_trial spec ~scratch ~root ~index:i in
      (match journal with
      | Some j -> Torture.Journal.write j (Torture.trial_line i tr)
      | None -> ());
      arr.(i) <- tr;
      lat.(i) <- s_since t0
    done;
    walls.(b) <- s_since tb;
    alloc := Alloc.add !alloc (Alloc.delta ~before:a0 ~after:(Alloc.snap ()));
    between ()
  done;
  (arr, lat, walls, !alloc)

let verdict_name = function
  | Torture.V_ok -> "ok"
  | V_violation m -> "violation: " ^ m
  | V_incomplete -> "incomplete"
  | V_budget -> "budget_exhausted"
  | V_engine_fault m -> "engine_fault: " ^ m

(* The journal, streamed back: the campaign header, then trial [i]'s
   record on line [i + 1], each parsing back to the recorded trial. *)
let journal_reads_back path spec ~root ~trials arr =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go k =
    match input_line ic with
    | line ->
        let i, tr = Torture.trial_of_json (Tiny_json.parse line) in
        i = k && k < trials && tr = arr.(i) && go (k + 1)
    | exception End_of_file -> k = trials
  in
  try input_line ic = Torture.header_line spec ~root_seed:root ~trials && go 0
  with Tiny_json.Error _ | Invalid_argument _ | Failure _ | End_of_file ->
    false

(* Merge the whole run and check it: verdict counts sum to the number
   attempted, sampled trials re-run identically on a fresh scratch, the
   first failing trial reproduces from its index, and the journal reads
   back to exactly the recorded trials.  Returns the failed count, the
   run's exact-count digest and the deterministic report document. *)
let verify_torture w spec ~root ~trials arr (r : Torture.report) ~journal =
  let open Torture in
  require
    (r.linearized + r.not_linearized + r.incomplete + r.budget_exhausted
     + r.engine_faults
    = trials)
    "torture verdict counts do not sum to the trials attempted";
  let failing = ref [] in
  Array.iteri
    (fun i tr -> if tr.t_verdict <> V_ok then failing := i :: !failing)
    arr;
  let failing = List.rev !failing in
  let failed = List.length failing in
  require (failed = trials - r.linearized) "failed count disagrees with report";
  List.iter
    (fun i ->
      Printf.printf "FAILED %s trial %d: %s\n  replay: %s\n" (workload_name w)
        i
        (verdict_name arr.(i).t_verdict)
        (replay_command w ~root ~index:i))
    failing;
  let scratch = Session.make_scratch () in
  let rerun i = run_trial spec ~scratch ~root ~index:i = arr.(i) in
  (match failing with
  | i :: _ ->
      require (rerun i)
        (Printf.sprintf "first failing trial %d does not reproduce" i)
  | [] -> ());
  let stride = max 1 (trials / 128) in
  let i = ref 0 in
  while !i < trials do
    require (rerun !i)
      (Printf.sprintf "trial %d differs when re-run from its index" !i);
    i := !i + stride
  done;
  let jdigest =
    match journal with
    | None -> ""
    | Some path ->
        require
          (journal_reads_back path spec ~root ~trials arr)
          "checkpoint journal does not read back to the recorded trials";
        Digest.to_hex (Digest.file path)
  in
  let doc = to_json ~timing:false r in
  (failed, Digest.to_hex (Digest.string (doc ^ jdigest)), doc)

(* ------------------------------------------------------------------ *)
(* traced torture: the same trial, replayed from its public parts
   (Prng streams, Schedule, Crash_plan, the Driver loop over Session,
   the incremental Lin_check.Session) with each layer timed.  One
   [layers] record per trial holds its spans (summed per layer); they stay
   in memory and are written out when the run ends. *)

type layers = {
  mutable mk_ns : float;
  mutable create_ns : float;
  mutable step_ns : float;
  mutable steps : int;
  mutable crash_ns : float;
  mutable crashes : int;
  mutable check_ns : float;
  mutable check_bytes : float;
  mutable events : int;
  mutable spec_steps : int;
  mutable batch_ns : float;
  mutable line_ns : float;
  mutable write_ns : float;
  mutable line_bytes : int;
  mutable trial_ns : float;  (** the replayed [run_trial], journal excluded *)
  mutable peak_frontier : int;
}

let new_layers () =
  {
    mk_ns = 0.;
    create_ns = 0.;
    step_ns = 0.;
    steps = 0;
    crash_ns = 0.;
    crashes = 0;
    check_ns = 0.;
    check_bytes = 0.;
    events = 0;
    spec_steps = 0;
    batch_ns = 0.;
    line_ns = 0.;
    write_ns = 0.;
    line_bytes = 0;
    trial_ns = 0.;
    peak_frontier = 0;
  }

let span_line i l =
  Printf.sprintf
    {|{"trial": %d, "mk_ns": %.0f, "session_create_ns": %.0f, "steps": %d, "step_ns": %.0f, "crashes": %d, "crash_ns": %.0f, "check_ns": %.0f, "check_bytes": %.0f, "events": %d, "spec_steps": %d, "peak_frontier": %d, "batch_ns": %.0f, "trial_line_ns": %.0f, "journal_write_ns": %.0f, "line_bytes": %d, "trial_ns": %.0f}|}
    i l.mk_ns l.create_ns l.steps l.step_ns l.crashes l.crash_ns l.check_ns
    l.check_bytes l.events l.spec_steps l.peak_frontier l.batch_ns l.line_ns
    l.write_ns l.line_bytes l.trial_ns

(* [Torture.run_trial], decomposed, with its spans recorded in [l];
   returns the identical record plus, when the checker ran, the history,
   its specification and the checker's verdict.  [None] when object code raised: the
   caller then takes the trial from [run_trial], which records it. *)
let traced_trial (spec : Torture.spec) ~scratch ~root ~index (l : layers) =
  let prng = Dtc_util.Prng.stream root ~index in
  let wseed =
    Int64.to_int (Int64.shift_right_logical (Dtc_util.Prng.next_int64 prng) 2)
  in
  let workloads = spec.workloads_of_seed wseed in
  let t = now () in
  let machine, inst = spec.mk () in
  l.mk_ns <- l.mk_ns +. ns_since t;
  let trace = ref [] and crash_steps = ref [] in
  let sched = Schedule.random (Dtc_util.Prng.split prng) in
  let plan =
    Crash_plan.faulted ~max_crashes:spec.max_crashes ~fault:spec.fault
      ~prob:spec.crash_prob
      (Dtc_util.Prng.split prng)
  in
  let finish ~steps ~crashes ~rec_returned ~rec_failed ~verdict =
    {
      Torture.t_seed = wseed;
      t_fault_seed = Crash_plan.fault_seed plan;
      t_steps = steps;
      t_crashes = crashes;
      t_crash_steps = List.rev !crash_steps;
      t_rec_returned = rec_returned;
      t_rec_failed = rec_failed;
      t_bits = Mem.max_shared_bits (Runtime.Machine.mem machine);
      t_verdict = verdict;
      t_trace = List.rev !trace;
    }
  in
  match
    let t = now () in
    let s =
      Session.create ~policy:spec.policy ~scratch machine inst ~workloads
    in
    l.create_ns <- l.create_ns +. ns_since t;
    let incomplete = ref false and budget = ref false in
    let continue = ref true in
    while !continue do
      match Session.runnable s with
      | [] -> continue := false
      | runnable ->
          let step = Session.steps s in
          if step >= spec.max_steps then begin
            incomplete := true;
            continue := false
          end
          else if Session.max_cur_steps s > spec.watchdog then begin
            budget := true;
            incomplete := true;
            continue := false
          end
          else if plan.Crash_plan.should_crash ~step then begin
            crash_steps := step :: !crash_steps;
            trace := Explore.Crash :: !trace;
            let t = now () in
            Session.crash_wipe s plan.Crash_plan.wipe;
            l.crash_ns <- l.crash_ns +. ns_since t;
            l.crashes <- l.crashes + 1
          end
          else begin
            let pid = sched.Schedule.choose ~runnable ~step in
            trace := Explore.Step pid :: !trace;
            let t = now () in
            Session.step s pid;
            l.step_ns <- l.step_ns +. ns_since t;
            l.steps <- l.steps + 1
          end
    done;
    let history = Session.history s in
    let rec_returned, rec_failed =
      List.fold_left
        (fun (r, f) -> function
          | Event.Rec_ret _ -> (r + 1, f)
          | Event.Rec_fail _ -> (r, f + 1)
          | _ -> (r, f))
        (0, 0) history
    in
    let lin, checked =
      match Session.anomalies s with
      | a :: _ -> (Lin_check.Violation ("driver anomaly: " ^ a), false)
      | [] ->
          (* [Gc.minor_words] is exact per call; the [Gc.quick_stat]
             counters behind [Alloc_stats] only advance at minor
             collections, so they cannot meter a sub-heap region *)
          let w = Gc.minor_words () in
          let t = now () in
          let ls = Lin_check.Session.create inst.Obj_inst.spec in
          Lin_check.Session.push_history ls history;
          let v = Lin_check.Session.verdict ls in
          l.check_ns <- l.check_ns +. ns_since t;
          l.check_bytes <-
            l.check_bytes
            +. ((Gc.minor_words () -. w) *. float Alloc.word_bytes);
          l.events <- Lin_check.Session.events_pushed ls;
          l.spec_steps <- Lin_check.Session.spec_steps ls;
          l.peak_frontier <- Lin_check.Session.peak_frontier ls;
          (v, true)
    in
    let verdict =
      match lin with
      | Lin_check.Violation msg -> Torture.V_violation msg
      | Lin_check.Ok_linearizable _ ->
          if !budget then Torture.V_budget
          else if !incomplete then Torture.V_incomplete
          else Torture.V_ok
    in
    let checked =
      if checked then Some (history, inst.Obj_inst.spec, Lin_check.is_ok lin)
      else None
    in
    ( finish ~steps:(Session.steps s) ~crashes:(Session.crashes s)
        ~rec_returned ~rec_failed ~verdict,
      checked )
  with
  | res -> Some res
  | exception _ -> None

(* ------------------------------------------------------------------ *)
(* certify_cas: Theorem 1's 2^(N-1) bound for Algorithm 2 on the
   uniform CAS chain (every process runs cas(0,1); ...; cas(N-1,N)) *)

let certify_mk n () =
  let m = Runtime.Machine.create () in
  (m, Detectable.Dcas.instance (Detectable.Dcas.create m ~n ~init:(Value.Int 0)))

let certify_workloads n =
  Array.init n (fun _ ->
      List.init n (fun k -> Spec.cas_op (Value.Int k) (Value.Int (k + 1))))

let certify_config scale =
  {
    Explore.default_config with
    switch_budget = 2;
    crash_budget = 0;
    max_steps = 50_000;
    node_budget = certify_node_budget scale;
    reduction = `Dpor_sym_memo;
  }

(* cold set-up: object, workloads, config, and a warm-up certification
   at N = [warmup_certify_n] *)
let certify_setup scale =
  let t0 = now () in
  let n = certify_n scale in
  let mk = certify_mk n and workloads = certify_workloads n in
  let cfg = certify_config scale in
  ignore (mk () : Runtime.Machine.t * Obj_inst.t);
  let wn = warmup_certify_n in
  ignore
    (Explore.explore ~mk:(certify_mk wn) ~workloads:(certify_workloads wn) cfg
      : Explore.outcome);
  (n, mk, workloads, cfg, s_since t0)

(* every counter that is a pure function of the search, for the
   repeat-identity check *)
let certify_counters (o : Explore.outcome) =
  let m = o.metrics in
  let hist h =
    String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d:%d" a b) h)
  in
  Printf.sprintf
    "executions=%d truncated=%d nodes=%d violations=%d configs=%d capped=%b \
     memo_hits=%d nodes_saved=%d peak_visited=%d rewound_cells=%d \
     leaf_checks=%d lin_events_pushed=%d lin_events_total=%d sleep_skips=%d \
     sym_skips=%d source_skips=%d canonical_orbits=%d depth_hist=%s \
     journal_hist=%s frontier_hist=%s"
    o.executions o.truncated o.nodes o.total_violations
    o.distinct_shared_configs o.capped m.dedup_hits m.nodes_saved
    m.peak_visited m.rewound_cells m.leaf_checks m.lin_events_pushed
    m.lin_events_total m.sleep_skips m.sym_skips m.source_skips
    m.canonical_orbits (hist m.replay_depth_hist) (hist m.journal_depth_hist)
    (hist m.frontier_hist)

let certify_failed ~n (o : Explore.outcome) =
  o.capped || o.total_violations > 0 || o.distinct_shared_configs < 1 lsl (n - 1)

(* Per-call costs of the explorer's per-node layers, timed around their
   public functions along seeded random walks of the certified
   configuration space (undo-mode session, canonical configuration
   set). *)
type probes = {
  mutable p_nodes : int;
  mutable p_digest : float;
  mutable p_fp_full : float;
  mutable p_canon : float;
  mutable p_orbit : float;
  mutable p_add : float;
  mutable p_mark : float;
  mutable p_step : float;
  mutable p_rewind : float;
}

let walk_probes ~n ~nodes =
  let m, inst = certify_mk n () in
  let s = Session.create ~undo:true m inst ~workloads:(certify_workloads n) in
  let mem = Runtime.Machine.mem m in
  let buf = Session.make_mark_buf s in
  let root = Session.mark s in
  let set = Modelcheck.Config_set.create ~canonical:n () in
  let prng = Dtc_util.Prng.create 7 in
  let p =
    {
      p_nodes = 0;
      p_digest = 0.;
      p_fp_full = 0.;
      p_canon = 0.;
      p_orbit = 0.;
      p_add = 0.;
      p_mark = 0.;
      p_step = 0.;
      p_rewind = 0.;
    }
  in
  let timed f =
    let t = now () in
    f ();
    ns_since t
  in
  while p.p_nodes < nodes do
    match Session.runnable s with
    | [] -> Session.rewind s root
    | runnable ->
        let pid = Dtc_util.Prng.pick prng runnable in
        p.p_digest <-
          p.p_digest +. timed (fun () -> ignore (Session.state_digest s : int));
        p.p_fp_full <-
          p.p_fp_full
          +. timed (fun () -> ignore (Mem.live_fingerprint_full mem : int * int));
        p.p_canon <-
          p.p_canon
          +. timed (fun () ->
                 ignore (Modelcheck.Sym.canonical_fingerprint_shared ~n mem
                   : int * int));
        p.p_orbit <-
          p.p_orbit
          +. timed (fun () ->
                 ignore (Modelcheck.Sym.orbit_size_shared ~n mem : int));
        p.p_add <-
          p.p_add
          +. timed (fun () ->
                 ignore (Modelcheck.Config_set.add_live set mem : bool));
        p.p_mark <- p.p_mark +. timed (fun () -> Session.mark_into s buf);
        p.p_step <- p.p_step +. timed (fun () -> Session.step s pid);
        p.p_rewind <- p.p_rewind +. timed (fun () -> Session.rewind_buf s buf);
        Session.step s pid;
        p.p_nodes <- p.p_nodes + 1
  done;
  p

(* ------------------------------------------------------------------ *)
(* set-up probes: cold set-up, each in a fresh process *)

type opts = {
  workload : workload;
  seed : int;
  seconds : int;
  trace : bool;
  scale : scale;
  out_dir : string;
}

let scale_name = function Full -> "full" | Tiny -> "tiny"

let setup_probe o =
  match o.workload with
  | Certify_cas ->
      let _, _, _, _, s = certify_setup o.scale in
      s
  | w ->
      let trials = torture_trials w o.scale ~seconds:o.seconds in
      let _, _, journal, s =
        torture_setup w ~root:o.seed ~trials
          ~journal:(journal_path w ~out_dir:o.out_dir ~tag:"probe")
      in
      Option.iter Torture.Journal.close journal;
      Option.iter Sys.remove (journal_path w ~out_dir:o.out_dir ~tag:"probe");
      s

let spawn_setup_probe o =
  let args =
    [|
      Sys.executable_name;
      "setup-probe";
      "--workload";
      workload_name o.workload;
      "--seed";
      string_of_int o.seed;
      "--seconds";
      string_of_int o.seconds;
      "--scale";
      scale_name o.scale;
      "--out-dir";
      o.out_dir;
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let line = try Some (input_line ic) with End_of_file -> None in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, Some l -> float_of_string (String.trim l)
  | _ -> failwith "set-up probe process failed"

(* [k] probes per call; their samples accumulate in [acc] *)
let run_probes o acc k =
  for _ = 1 to k do
    acc := spawn_setup_probe o :: !acc
  done

(* ------------------------------------------------------------------ *)
(* exact-count store: a repeat run of the same (code, workload, scale,
   seconds, seed) must reproduce the same digest.  The code is named by
   the digest of this executable, so a change that legitimately alters a
   count starts a fresh key instead of failing against an older build. *)

let check_exact o digest =
  let dir = Filename.concat o.out_dir "exact" in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let code = String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 16 in
  let key =
    Printf.sprintf "%s-%s-s%d-seed%d-code%s" (workload_name o.workload)
      (scale_name o.scale) o.seconds o.seed code
  in
  let path = Filename.concat dir key in
  Printf.printf "exact-digest %s %s\n" key digest;
  if Sys.file_exists path then begin
    let ic = open_in path in
    let old = input_line ic in
    close_in ic;
    require (old = digest)
      (Printf.sprintf
         "exact counts differ from an earlier run of the same seed (%s): %s \
          vs %s"
         key old digest)
  end
  else begin
    let oc = open_out path in
    output_string oc (digest ^ "\n");
    close_out oc
  end

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

(* ------------------------------------------------------------------ *)
(* result line *)

(* The gated metrics are the ones fixed work makes steady on a box
   whose memory phases move wall time by ±20 % (NOTES.md, N1–N3); the
   wall-time figures are reported beside them, as the [Run.*] per-layer
   metrics of the traced run's untraced pass.  NOTES.md gives, metric by
   metric, the measured spread that keeps each of them ungated. *)
let end_to_end =
  [ ("setup_s", "s"); ("peak_rss_mb", "MB"); ("alloc_kb_per_trial", "KB") ]

let per_layer =
  [
    ("Run.trials_per_s", "trials/s");
    ("Run.trial_ms_p50", "ms");
    ("Run.trial_ms_p99", "ms");
    ("Run.verdict_s", "s");
    ("Torture.mk_us", "us");
    ("Torture.bytes_per_trial", "B");
    ("Torture.trial_line_us", "us");
    ("Journal.write_us", "us");
    ("Journal.bytes_per_trial", "B");
    ("Session.steps_per_trial", "steps");
    ("Session.step_ns", "ns");
    ("Session.crash_us", "us");
    ("Session.share", "fraction");
    ("Session.mark_ns", "ns");
    ("Session.rewind_ns", "ns");
    ("Session.state_digest_ns", "ns");
    ("Lin_check.check_us", "us");
    ("Lin_check.share", "fraction");
    ("Lin_check.events_per_trial", "events");
    ("Lin_check.spec_steps_per_trial", "steps");
    ("Lin_check.peak_frontier_p99", "configs");
    ("Lin_check.bytes_per_trial", "B");
    ("Lin_check.batch_ref_us", "us");
    ("Value.intern_probes_per_trial", "probes");
    ("Value.intern_hit_rate", "fraction");
    ("Value.intern_misses_per_trial", "misses");
    ("gc.live_mb_end", "MB");
    ("Mem.live_fingerprint_full_ns", "ns");
    ("Explore.rewound_cells", "cells");
    ("Explore.nodes", "nodes");
    ("Explore.executions", "executions");
    ("Explore.nodes_per_s", "nodes/s");
    ("Explore.memo_hits", "count");
    ("Explore.sleep_skips", "count");
    ("Explore.sym_skips", "count");
    ("Explore.source_skips", "count");
    ("Explore.canonical_orbits", "count");
    ("Explore.lin_share", "fraction");
    ("Explore.peak_visited", "entries");
    ("Explore.bytes_per_node", "B");
    ("Sym.canonical_fingerprint_ns", "ns");
    ("Sym.orbit_size_shared_ns", "ns");
    ("Config_set.add_live_ns", "ns");
    ("trace.overhead_share", "fraction");
  ]

(* Every metric of the run's list is printed; a layer the workload does
   not exercise reports 0. *)
let emit o ~attempted ~failed values =
  let table = if o.trace then per_layer else end_to_end in
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k table) then
        failwith ("perfbench: metric not in the table: " ^ k))
    values;
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = try List.assoc name values with Not_found -> 0. in
        Printf.sprintf {|%S: {"value": %s, "unit": %S}|} name (num v) unit)
      table
  in
  Printf.printf
    {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (!check_errors = 0) attempted failed
    (String.concat ", " metrics);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* the runs *)

let intern_delta (h0, m0) =
  let h1, m1 = Value.intern_stats () in
  (float (h1 - h0), float (m1 - m0))

(* The wall-time figures of untraced work: [lat] holds one latency per
   trial (s), [work_s] the trials' wall time. *)
let run_times ~lat ~work_s ~verdict_s =
  [
    ("Run.trials_per_s", float (Array.length lat) /. work_s);
    ("Run.trial_ms_p50", quantile lat 0.5 *. 1e3);
    ("Run.trial_ms_p99", quantile lat 0.99 *. 1e3);
    ("Run.verdict_s", verdict_s);
  ]

(* On certify a unit is one certification: a run holds a handful, too few
   for per-unit latency quantiles, so [Run.trial_ms_*] read 0 there, as
   for any layer a workload does not exercise. *)
let certify_times walls =
  [
    ( "Run.trials_per_s",
      float (Array.length walls) /. Array.fold_left ( +. ) 0. walls );
    ("Run.trial_ms_p50", 0.);
    ("Run.trial_ms_p99", 0.);
    ("Run.verdict_s", quantile walls 0.5);
  ]

let show_times times =
  String.concat ", "
    (List.map (fun (k, v) -> Printf.sprintf "%s %.6g" k v) times)

(* Merge the run (timed: the rest of the way to the verdict), check it,
   record its exact-count digest and deterministic report, and delete the
   journal.  Returns the failed count and the merge time. *)
let settle_torture o spec ~trials arr ~journal =
  let tm = now () in
  let report = Torture.merge spec ~root_seed:o.seed ~trials ~shrink:true arr in
  let merge_s = s_since tm in
  let failed, digest, doc =
    verify_torture o.workload spec ~root:o.seed ~trials arr report ~journal
  in
  check_exact o digest;
  write_file
    (Filename.concat o.out_dir
       (Printf.sprintf "report-%s-%s-s%d-seed%d.json"
          (workload_name o.workload) (scale_name o.scale) o.seconds o.seed))
    doc;
  Option.iter Sys.remove journal;
  (failed, merge_s)

let run_torture o =
  let w = o.workload in
  let root = o.seed in
  let trials = torture_trials w o.scale ~seconds:o.seconds in
  let journal = journal_path w ~out_dir:o.out_dir ~tag:(workload_name w) in
  let spec, scratch, j, setup0 = torture_setup w ~root ~trials ~journal in
  if not o.trace then begin
    let blocks = torture_blocks o.scale in
    let samples = ref [ setup0 ] in
    let per_gap = max 1 (setup_samples / blocks) in
    let arr, lat, walls, alloc =
      torture_pass spec ~scratch ~journal:j ~root ~trials ~blocks
        ~between:(fun () -> run_probes o samples per_gap)
    in
    let rss = vm_hwm_mb () in
    Option.iter Torture.Journal.close j;
    let work_s = Array.fold_left ( +. ) 0. walls in
    let failed, merge_s = settle_torture o spec ~trials arr ~journal in
    let times =
      run_times ~lat ~work_s ~verdict_s:(work_s +. merge_s)
    in
    Printf.printf
      "%s: %d trials, %.3f s of trial work (blocks: %s); set-up over %d \
       samples\n\
       wall time over %d trials: %s\n"
      (workload_name w) trials work_s
      (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") walls)))
      (List.length !samples) trials (show_times times);
    emit o ~attempted:trials ~failed
      [
        ("setup_s", setup_of !samples);
        ("peak_rss_mb", rss);
        ("alloc_kb_per_trial", Alloc.bytes_per alloc trials /. 1024.);
      ]
  end
  else begin
    (* untraced pass, then the traced replay of the same trials *)
    let i0 = Value.intern_stats () in
    let arr, lat, walls, alloc =
      torture_pass spec ~scratch ~journal:j ~root ~trials ~blocks:1
        ~between:ignore
    in
    let untraced_s = walls.(0) in
    let hits, misses = intern_delta i0 in
    Option.iter Torture.Journal.close j;
    let tjournal = journal_path w ~out_dir:o.out_dir ~tag:(workload_name w ^ "-traced") in
    let tj =
      Option.map
        (fun path ->
          Torture.Journal.create ~path ~resume:false spec ~root_seed:root ~trials)
        tjournal
    in
    let spans = Array.init trials (fun _ -> new_layers ()) in
    let replayed = ref true and diverged = ref None in
    (* [run_trial] again beside each traced trial, before it on even
       trials and after it on odd ones, so the tracing overhead compares
       the two on the same heap, in the same contention phase, and with
       neither always the one that finds the caches warm *)
    let plain_ns = ref 0. in
    let plain i =
      let t0 = now () in
      ignore (Torture.run_trial spec ~scratch ~root ~index:i : Torture.trial);
      plain_ns := !plain_ns +. ns_since t0
    in
    for i = 0 to trials - 1 do
      let l = spans.(i) in
      if i land 1 = 0 then plain i;
      let t0 = now () in
      let res = traced_trial spec ~scratch ~root ~index:i l in
      let tr =
        match res with
        | Some (tr, _) -> tr
        | None ->
            replayed := false;
            Torture.run_trial spec ~scratch ~root ~index:i
      in
      l.trial_ns <- ns_since t0;
      (match tj with
      | Some jr ->
          let t = now () in
          let line = Torture.trial_line i tr in
          let t' = now () in
          Torture.Journal.write jr line;
          l.write_ns <- ns_since t';
          l.line_ns <- Int64.to_float (Int64.sub t' t);
          l.line_bytes <- String.length line + 1
      | None -> ());
      if i land 1 = 1 then plain i;
      if tr <> arr.(i) && !diverged = None then diverged := Some i;
      (* the batch reference engine on the same history, untimed by
         the traced wall *)
      match res with
      | Some (_, Some (history, lspec, inc_ok)) ->
          let t = now () in
          let v = Lin_check.check lspec history in
          l.batch_ns <- ns_since t;
          require
            (Lin_check.is_ok v = inc_ok)
            (Printf.sprintf "batch and incremental checkers disagree on trial %d" i)
      | _ -> ()
    done;
    Option.iter Torture.Journal.close tj;
    require !replayed "a traced trial raised; its layers are not counted";
    Option.iter
      (Printf.ksprintf (require false)
         "traced replay of trial %d diverged from run_trial")
      !diverged;
    (match (journal, tjournal) with
    | Some a, Some b ->
        require
          (Digest.file a = Digest.file b)
          "traced journal differs from the untraced journal"
    | _ -> ());
    Option.iter Sys.remove tjournal;
    let failed, merge_s = settle_torture o spec ~trials arr ~journal in
    write_file
      (Filename.concat o.out_dir
         ("spans-" ^ workload_name w ^ ".jsonl"))
      (String.concat "" (Array.to_list (Array.mapi (fun i l -> span_line i l ^ "\n") spans)));
    let total f = Array.fold_left (fun a l -> a +. f l) 0. spans in
    let count f = total (fun l -> float (f l)) in
    let per_trial x = x /. float trials in
    let probes = hits +. misses in
    let step_ns = total (fun l -> l.step_ns) and steps = count (fun l -> l.steps) in
    let check_ns = total (fun l -> l.check_ns) and trial_ns = total (fun l -> l.trial_ns) in
    emit o ~attempted:trials ~failed
      (run_times ~lat ~work_s:untraced_s ~verdict_s:(untraced_s +. merge_s)
      @ [
        ("Torture.mk_us", per_trial (total (fun l -> l.mk_ns)) *. 1e-3);
        ("Torture.bytes_per_trial", Alloc.bytes_per alloc trials);
        ("Torture.trial_line_us", per_trial (total (fun l -> l.line_ns)) *. 1e-3);
        ("Journal.write_us", per_trial (total (fun l -> l.write_ns)) *. 1e-3);
        ("Journal.bytes_per_trial", per_trial (count (fun l -> l.line_bytes)));
        ("Session.steps_per_trial", per_trial steps);
        ("Session.step_ns", ratio step_ns steps);
        ( "Session.crash_us",
          ratio (total (fun l -> l.crash_ns)) (count (fun l -> l.crashes)) *. 1e-3 );
        ( "Session.share",
          ratio (total (fun l -> l.create_ns) +. step_ns +. total (fun l -> l.crash_ns))
            trial_ns );
        ("Lin_check.check_us", per_trial check_ns *. 1e-3);
        ("Lin_check.share", ratio check_ns trial_ns);
        ("Lin_check.events_per_trial", per_trial (count (fun l -> l.events)));
        ("Lin_check.spec_steps_per_trial", per_trial (count (fun l -> l.spec_steps)));
        ( "Lin_check.peak_frontier_p99",
          quantile (Array.map (fun l -> float l.peak_frontier) spans) 0.99 );
        ("Lin_check.bytes_per_trial", per_trial (total (fun l -> l.check_bytes)));
        ("Lin_check.batch_ref_us", per_trial (total (fun l -> l.batch_ns)) *. 1e-3);
        ("Value.intern_probes_per_trial", per_trial probes);
        ("Value.intern_hit_rate", ratio hits probes);
        ("Value.intern_misses_per_trial", per_trial misses);
        ("gc.live_mb_end", live_mb_after_full_major ());
        ("trace.overhead_share", ratio (trial_ns -. !plain_ns) !plain_ns);
      ])
  end

let run_certify o =
  let n, mk, workloads, cfg, setup0 = certify_setup o.scale in
  let bound = 1 lsl (n - 1) in
  let first = ref None in
  let failed = ref 0 in
  let certify () =
    let a0 = Alloc.snap () in
    let t = now () in
    let out = Explore.explore ~mk ~workloads cfg in
    let wall = s_since t in
    let alloc = Alloc.delta ~before:a0 ~after:(Alloc.snap ()) in
    let c = certify_counters out in
    (match !first with
    | None ->
        first := Some c;
        Printf.printf "certify_cas N=%d: %d configurations (bound %d), %s\n" n
          out.distinct_shared_configs bound c
    | Some c0 ->
        require (c = c0) "certification counters differ between repeats");
    if certify_failed ~n out then begin
      incr failed;
      Printf.printf
        "FAILED certify_cas N=%d: configs=%d (bound %d) capped=%b \
         violations=%d\n  replay: python3 perfbench/run.py --workload \
         certify_cas --seed %d --seconds %d --trace 0\n"
        n out.distinct_shared_configs bound out.capped out.total_violations
        o.seed o.seconds
    end;
    (out, wall, Alloc.allocated_bytes alloc)
  in
  let finish attempted metrics =
    (match !first with
    | Some c -> check_exact o (Digest.to_hex (Digest.string c))
    | None -> ());
    emit o ~attempted ~failed:!failed metrics
  in
  if not o.trace then begin
    let reps = certify_reps o.scale ~seconds:o.seconds in
    let samples = ref [ setup0 ] in
    let per_gap = max 1 (setup_samples / reps) in
    let runs =
      Array.init reps (fun _ ->
          let _, wall, bytes = certify () in
          run_probes o samples per_gap;
          (wall, bytes))
    in
    let rss = vm_hwm_mb () in
    let walls = Array.map fst runs in
    Printf.printf
      "certify_cas: %d certifications; set-up over %d samples\n\
       wall time over %d certifications: %s\n"
      reps (List.length !samples) reps
      (show_times (certify_times walls));
    finish reps
      [
        ("setup_s", setup_of !samples);
        ("peak_rss_mb", rss);
        ( "alloc_kb_per_trial",
          mean (Array.map snd runs) /. 1024. );
      ]
  end
  else begin
    (* the first search grows the heap; the untraced and traced timings
       both run on the grown heap *)
    let _ = certify () in
    let _, untraced_s, _ = certify () in
    (* traced: the same search with its object factory timed and its
       intern traffic metered *)
    let mk_ns = ref 0. and mk_calls = ref 0 in
    let timed_mk () =
      let t = now () in
      let r = mk () in
      mk_ns := !mk_ns +. ns_since t;
      incr mk_calls;
      r
    in
    let i0 = Value.intern_stats () in
    let t = now () in
    let out = Explore.explore ~mk:timed_mk ~workloads cfg in
    let traced_s = s_since t in
    let hits, misses = intern_delta i0 in
    require
      (Some (certify_counters out) = !first)
      "certification counters differ between repeats";
    if certify_failed ~n out then incr failed;
    let p = walk_probes ~n ~nodes:(match o.scale with Full -> 20_000 | Tiny -> 500) in
    let m = out.metrics in
    let per_node x = ratio x (float p.p_nodes) in
    let probes = hits +. misses in
    finish 3
      (certify_times [| untraced_s |]
      @ [
        ("Torture.mk_us", ratio !mk_ns (float !mk_calls) *. 1e-3);
        ("Session.step_ns", per_node p.p_step);
        ("Session.mark_ns", per_node p.p_mark);
        ("Session.rewind_ns", per_node p.p_rewind);
        ("Session.state_digest_ns", per_node p.p_digest);
        ("Value.intern_probes_per_trial", probes);
        ("Value.intern_hit_rate", ratio hits probes);
        ("Value.intern_misses_per_trial", misses);
        ("gc.live_mb_end", live_mb_after_full_major ());
        ("Mem.live_fingerprint_full_ns", per_node p.p_fp_full);
        ("Explore.rewound_cells", float m.rewound_cells);
        ("Explore.nodes", float out.nodes);
        ("Explore.executions", float out.executions);
        ("Explore.nodes_per_s", m.nodes_per_sec);
        ("Explore.memo_hits", float m.dedup_hits);
        ("Explore.sleep_skips", float m.sleep_skips);
        ("Explore.sym_skips", float m.sym_skips);
        ("Explore.source_skips", float m.source_skips);
        ("Explore.canonical_orbits", float m.canonical_orbits);
        ("Explore.lin_share", ratio m.lin_elapsed_s m.elapsed_s);
        ("Explore.peak_visited", float m.peak_visited);
        ("Explore.bytes_per_node", m.bytes_per_node);
        ("Sym.canonical_fingerprint_ns", per_node p.p_canon);
        ("Sym.orbit_size_shared_ns", per_node p.p_orbit);
        ("Config_set.add_live_ns", per_node p.p_add);
        ("trace.overhead_share", ratio (traced_s -. untraced_s) untraced_s);
      ])
  end

(* ------------------------------------------------------------------ *)
(* command line *)

let usage () =
  prerr_endline
    "usage: perfbench.exe (run|setup-probe) --workload W --seed S --seconds T \
     [--trace 0|1] [--scale full|tiny] [--out-dir DIR]";
  exit 2

let parse_opts args =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref false and scale = ref Full and out_dir = ref ".perfbench_run" in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := List.assoc_opt v workload_names;
        if !workload = None then usage ();
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := int_of_string_opt v;
        go rest
    | "--trace" :: v :: rest ->
        (trace := match v with "0" -> false | "1" -> true | _ -> usage ());
        go rest
    | "--scale" :: v :: rest ->
        (scale := match v with "full" -> Full | "tiny" -> Tiny | _ -> usage ());
        go rest
    | "--out-dir" :: v :: rest ->
        out_dir := v;
        go rest
    | _ -> usage ()
  in
  go args;
  match (!workload, !seed, !seconds) with
  | Some workload, Some seed, Some seconds when seconds >= 1 && seed >= 0 ->
      { workload; seed; seconds; trace = !trace; scale = !scale; out_dir = !out_dir }
  | _ -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args ->
      let o = parse_opts args in
      if not (Sys.file_exists o.out_dir) then Unix.mkdir o.out_dir 0o755;
      (match o.workload with
      | Certify_cas -> run_certify o
      | Torture_cas | Torture_queue -> run_torture o)
  | "setup-probe" :: args ->
      let o = parse_opts args in
      Printf.printf "%.17g\n" (setup_probe o)
  | _ -> usage ()
