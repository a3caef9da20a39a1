(* Tests for the bounded exhaustive explorer itself. *)

open Nvm
open History
open Sched

let i n = Value.Int n

let test_deterministic_replay () =
  (* same configuration twice gives identical statistics *)
  let cfg =
    { Modelcheck.Explore.default_config with switch_budget = 2; crash_budget = 0 }
  in
  let run () =
    Modelcheck.Explore.explore
      ~mk:(fun () -> Test_support.mk_dcas ~n:2 ())
      ~workloads:[| [ Spec.cas_op (i 0) (i 1) ]; [ Spec.read_op ] |]
      cfg
  in
  let a = run () and b = run () in
  Alcotest.(check int) "executions" a.Modelcheck.Explore.executions
    b.Modelcheck.Explore.executions;
  Alcotest.(check int) "nodes" a.Modelcheck.Explore.nodes
    b.Modelcheck.Explore.nodes;
  Alcotest.(check int) "configs" a.Modelcheck.Explore.distinct_shared_configs
    b.Modelcheck.Explore.distinct_shared_configs

let test_switch_budget_monotone () =
  (* a larger budget explores at least as many executions *)
  let run budget =
    (Modelcheck.Explore.explore
       ~mk:(fun () -> Test_support.mk_dcas ~n:2 ())
       ~workloads:[| [ Spec.cas_op (i 0) (i 1) ]; [ Spec.cas_op (i 0) (i 2) ] |]
       {
         Modelcheck.Explore.default_config with
         switch_budget = budget;
         crash_budget = 0;
       })
      .Modelcheck.Explore.executions
  in
  let e0 = run 0 and e1 = run 1 and e2 = run 2 in
  Alcotest.(check bool) "0 <= 1" true (e0 <= e1);
  Alcotest.(check bool) "1 <= 2" true (e1 <= e2);
  (* budget 0: each process runs as a solo block; with two processes there
     are exactly 2 executions *)
  Alcotest.(check int) "budget 0 = two block orders" 2 e0

let test_crash_budget_zero_means_no_crash () =
  let out =
    Modelcheck.Explore.explore
      ~mk:(fun () -> Test_support.mk_dcas ~n:1 ())
      ~workloads:[| [ Spec.cas_op (i 0) (i 1) ] |]
      { Modelcheck.Explore.default_config with crash_budget = 0; switch_budget = 0 }
  in
  Alcotest.(check int) "single execution" 1 out.Modelcheck.Explore.executions;
  List.iter
    (fun (v : Modelcheck.Explore.violation) ->
      Alcotest.failf "unexpected violation %s" v.msg)
    out.Modelcheck.Explore.violations

let test_configs_counted_up_to_equivalence () =
  (* a solo CAS on a 1-process object visits exactly 2 distinct shared
     configurations: initial and post-CAS *)
  let out =
    Modelcheck.Explore.explore
      ~mk:(fun () -> Test_support.mk_dcas ~n:1 ())
      ~workloads:[| [ Spec.cas_op (i 0) (i 1) ] |]
      { Modelcheck.Explore.default_config with crash_budget = 0; switch_budget = 0 }
  in
  Alcotest.(check int) "two configs" 2
    out.Modelcheck.Explore.distinct_shared_configs

let test_crash_points_covers_all () =
  let out =
    Modelcheck.Explore.crash_points
      ~mk:(fun () -> Test_support.mk_dcas ~n:1 ())
      ~workloads:[| [ Spec.cas_op (i 0) (i 1) ] |]
      ~schedule:(fun () -> Schedule.round_robin ())
      ()
  in
  (* one crash-free run + one run per step of the crash-free run *)
  Alcotest.(check bool) "several executions" true
    (out.Modelcheck.Explore.executions > 5)

let test_violation_reports_schedule () =
  let out =
    Modelcheck.Explore.explore
      ~mk:(fun () ->
        let m = Runtime.Machine.create () in
        (m, Baselines.Broken.dcas_no_vec m ~n:2 ~init:(i 0)))
      ~workloads:[| [ Spec.cas_op (i 0) (i 1) ]; [ Spec.cas_op (i 1) (i 0) ] |]
      Modelcheck.Explore.default_config
  in
  match out.Modelcheck.Explore.violations with
  | [] -> Alcotest.fail "expected a violation sample"
  | v :: _ ->
      Alcotest.(check bool) "has schedule" true (v.decisions <> []);
      Alcotest.(check bool) "has history" true (v.history <> []);
      Alcotest.(check bool) "schedule contains the crash" true
        (List.mem Modelcheck.Explore.Crash v.decisions)

(* --- pruned / parallel searches agree with the unpruned one ---

   Memoisation stores exact subtree summaries, so every externally
   observable counter (executions, truncated, violations, distinct shared
   configurations) must be bit-identical to the unpruned search; only the
   number of physically visited nodes may shrink.  The same holds for the
   domain-partitioned search, whose workers split the top-level frontier. *)

let mk_no_vec () =
  let m = Runtime.Machine.create () in
  (m, Baselines.Broken.dcas_no_vec m ~n:2 ~init:(i 0))

let no_vec_workload =
  [| [ Spec.cas_op (i 0) (i 1) ]; [ Spec.cas_op (i 1) (i 0) ] |]

let mk_reexec () =
  let m = Runtime.Machine.create () in
  (m, Baselines.Broken.rw_no_aux_reexec m ~n:2 ~init:(i 0))

(* Figure 2 workload: p writes, q reads around q's own write. *)
let fig2_workload =
  [|
    [ Spec.write_op (i 1) ]; [ Spec.read_op; Spec.write_op (i 0); Spec.read_op ];
  |]

let check_engines_agree ~mk ~workloads ~switches ~crashes () =
  let base =
    {
      Modelcheck.Explore.default_config with
      switch_budget = switches;
      crash_budget = crashes;
    }
  in
  let run cfg = Modelcheck.Explore.explore ~mk ~workloads cfg in
  let unpruned = run { base with prune = false } in
  let agree label (out : Modelcheck.Explore.outcome) =
    Alcotest.(check int)
      (label ^ ": total_violations")
      unpruned.Modelcheck.Explore.total_violations
      out.Modelcheck.Explore.total_violations;
    Alcotest.(check int)
      (label ^ ": distinct_shared_configs")
      unpruned.Modelcheck.Explore.distinct_shared_configs
      out.Modelcheck.Explore.distinct_shared_configs;
    Alcotest.(check int)
      (label ^ ": executions")
      unpruned.Modelcheck.Explore.executions
      out.Modelcheck.Explore.executions;
    Alcotest.(check int)
      (label ^ ": truncated")
      unpruned.Modelcheck.Explore.truncated out.Modelcheck.Explore.truncated
  in
  let pruned = run { base with prune = true; exact_configs = true } in
  agree "pruned" pruned;
  (* every node visit the pruned search skipped is accounted for *)
  Alcotest.(check int) "pruned: nodes + nodes_saved = unpruned nodes"
    unpruned.Modelcheck.Explore.nodes
    (pruned.Modelcheck.Explore.nodes
    + pruned.Modelcheck.Explore.metrics.Modelcheck.Explore.nodes_saved);
  Alcotest.(check int) "pruned: no fingerprint collisions" 0
    pruned.Modelcheck.Explore.metrics.Modelcheck.Explore.fingerprint_collisions;
  let parallel = run { base with prune = true; domains = 2 } in
  agree "parallel" parallel;
  Alcotest.(check int) "parallel: ran on 2 domains" 2
    parallel.Modelcheck.Explore.metrics.Modelcheck.Explore.domains_used;
  pruned

let test_engines_agree_no_vec () =
  let pruned =
    check_engines_agree ~mk:mk_no_vec ~workloads:no_vec_workload ~switches:2
      ~crashes:1 ()
  in
  (* the no-vec ablation actually violates, so agreement is not vacuous *)
  Alcotest.(check bool) "violations present" true
    (pruned.Modelcheck.Explore.total_violations > 0);
  Alcotest.(check bool) "dedup engaged" true
    (pruned.Modelcheck.Explore.metrics.Modelcheck.Explore.dedup_hits > 0)

let test_engines_agree_reexec () =
  ignore
    (check_engines_agree ~mk:mk_reexec ~workloads:fig2_workload ~switches:2
       ~crashes:1 ())

(* --- the explorer agrees with the naive replay-from-root oracle ---

   [Explore_ref] re-executes every node from the root with a fresh
   machine and judges every leaf with the batch checker.  The unpruned,
   unreduced explorer visits the same DFS nodes in the same order, so
   EVERY counter — physically visited nodes included — and the
   violation samples must be identical; only wall-clock differs. *)

let viol_sig (o : Modelcheck.Explore.outcome) =
  List.map
    (fun (v : Modelcheck.Explore.violation) -> (v.decisions, v.msg))
    o.Modelcheck.Explore.violations

let take k l = List.filteri (fun i _ -> i < k) l

(* the unpruned explorer's outcome and the oracle's agree on every
   counter; with one domain the capped sample is the oracle's DFS-order
   prefix, with several it is drawn from the oracle's violations *)
let matches_oracle ?(domains = 1) ~mk ~workloads ~switches ~crashes () =
  let cfg =
    {
      Modelcheck.Explore.default_config with
      switch_budget = switches;
      crash_budget = crashes;
      prune = false;
      domains;
    }
  in
  let u = Modelcheck.Explore.explore ~mk ~workloads cfg in
  let r =
    Explore_ref.explore ~mk ~workloads ~switch_budget:switches
      ~crash_budget:crashes ()
  in
  let full (v : Modelcheck.Explore.violation) =
    (v.decisions, v.msg, v.history)
  in
  let sample = List.map full u.Modelcheck.Explore.violations in
  let all = List.map full r.Explore_ref.violations in
  let samples_ok =
    if domains = 1 then sample = take cfg.max_violations all
    else
      List.length sample = min cfg.max_violations r.Explore_ref.total_violations
      && List.for_all (fun v -> List.mem v all) sample
  in
  ( u,
    [
      ("executions", r.Explore_ref.executions, u.Modelcheck.Explore.executions);
      ("truncated", r.Explore_ref.truncated, u.Modelcheck.Explore.truncated);
      ("nodes", r.Explore_ref.nodes, u.Modelcheck.Explore.nodes);
      ( "total_violations",
        r.Explore_ref.total_violations,
        u.Modelcheck.Explore.total_violations );
      ( "distinct_shared_configs",
        r.Explore_ref.distinct_shared_configs,
        u.Modelcheck.Explore.distinct_shared_configs );
    ],
    samples_ok )

let check_matches_oracle ?domains ~mk ~workloads ~switches ~crashes () =
  let u, counters, samples_ok =
    matches_oracle ?domains ~mk ~workloads ~switches ~crashes ()
  in
  List.iter
    (fun (label, want, got) -> Alcotest.(check int) label want got)
    counters;
  Alcotest.(check bool) "violation samples identical" true samples_ok;
  u

let test_oracle_drw () =
  ignore
    (check_matches_oracle
       ~mk:(fun () -> Test_support.mk_drw ~n:2 ())
       ~workloads:[| [ Spec.write_op (i 1); Spec.read_op ]; [ Spec.write_op (i 2) ] |]
       ~switches:1 ~crashes:1 ())

let test_oracle_dcas () =
  ignore
    (check_matches_oracle
       ~mk:(fun () -> Test_support.mk_dcas ~n:2 ())
       ~workloads:[| [ Spec.cas_op (i 0) (i 1) ]; [ Spec.cas_op (i 1) (i 0) ] |]
       ~switches:2 ~crashes:1 ())

let test_oracle_broken_violating () =
  (* on the broken baselines the agreement covers real violation sets *)
  let u =
    check_matches_oracle ~mk:mk_no_vec ~workloads:no_vec_workload ~switches:2
      ~crashes:1 ()
  in
  Alcotest.(check bool) "no_vec violates" true
    (u.Modelcheck.Explore.total_violations > 0);
  Alcotest.(check bool) "undo search rewinds" true
    (u.Modelcheck.Explore.metrics.Modelcheck.Explore.rewound_cells > 0);
  let u2 =
    check_matches_oracle ~mk:mk_reexec ~workloads:fig2_workload ~switches:2
      ~crashes:1 ()
  in
  Alcotest.(check bool) "reexec violates" true
    (u2.Modelcheck.Explore.total_violations > 0)

let test_oracle_parallel () =
  let u =
    check_matches_oracle ~domains:2 ~mk:mk_no_vec ~workloads:no_vec_workload
      ~switches:2 ~crashes:1 ()
  in
  Alcotest.(check int) "ran on 2 domains" 2
    u.Modelcheck.Explore.metrics.Modelcheck.Explore.domains_used

(* --- the incremental lin-checker agrees with the batch reference ---

   Same contract as the naive oracle's: the checker engine must not change
   ANY externally observable number, only the leaf-check cost. *)

let check_lin_engines_agree ~mk ~workloads ~switches ~crashes () =
  let cfg lin_engine =
    {
      Modelcheck.Explore.default_config with
      switch_budget = switches;
      crash_budget = crashes;
      lin_engine;
    }
  in
  let run e = Modelcheck.Explore.explore ~mk ~workloads (cfg e) in
  let b = run `Batch and inc = run `Incremental in
  let ck label f = Alcotest.(check int) label (f b) (f inc) in
  ck "executions" (fun o -> o.Modelcheck.Explore.executions);
  ck "truncated" (fun o -> o.Modelcheck.Explore.truncated);
  ck "nodes" (fun o -> o.Modelcheck.Explore.nodes);
  ck "total_violations" (fun o -> o.Modelcheck.Explore.total_violations);
  ck "distinct_shared_configs"
    (fun o -> o.Modelcheck.Explore.distinct_shared_configs);
  ck "leaf_checks"
    (fun o -> o.Modelcheck.Explore.metrics.Modelcheck.Explore.leaf_checks);
  ck "lin_events_total"
    (fun o -> o.Modelcheck.Explore.metrics.Modelcheck.Explore.lin_events_total);
  Alcotest.(check bool) "violation samples identical" true
    (viol_sig b = viol_sig inc);
  Alcotest.(check string) "batch run labelled batch" "batch"
    b.Modelcheck.Explore.metrics.Modelcheck.Explore.lin_engine;
  Alcotest.(check string) "incremental run labelled incremental" "incremental"
    inc.Modelcheck.Explore.metrics.Modelcheck.Explore.lin_engine;
  (* only the incremental engine skips re-pushing shared prefixes *)
  let pushed (o : Modelcheck.Explore.outcome) =
    o.Modelcheck.Explore.metrics.Modelcheck.Explore.lin_events_pushed
  in
  Alcotest.(check bool) "incremental pushes fewer (or equal) events" true
    (pushed inc <= pushed b);
  Alcotest.(check bool) "incremental reuse measured" true
    (inc.Modelcheck.Explore.metrics.Modelcheck.Explore.lin_reuse_rate >= 0.0);
  Alcotest.(check bool) "frontier histogram populated" true
    (inc.Modelcheck.Explore.metrics.Modelcheck.Explore.frontier_hist <> []);
  inc

let test_lin_engines_agree_drw () =
  let inc =
    check_lin_engines_agree
      ~mk:(fun () -> Test_support.mk_drw ~n:2 ())
      ~workloads:
        [| [ Spec.write_op (i 1); Spec.read_op ]; [ Spec.write_op (i 2) ] |]
      ~switches:2 ~crashes:1 ()
  in
  Alcotest.(check bool) "frontier actually reused" true
    (inc.Modelcheck.Explore.metrics.Modelcheck.Explore.lin_reuse_rate > 0.0)

let test_lin_engines_agree_broken () =
  (* on a violating object the parity covers real violation messages *)
  let inc =
    check_lin_engines_agree ~mk:mk_no_vec ~workloads:no_vec_workload
      ~switches:2 ~crashes:1 ()
  in
  Alcotest.(check bool) "violations present" true
    (inc.Modelcheck.Explore.total_violations > 0)

let prop_oracle_random_workloads =
  (* oracle agreement over randomly generated cas workloads on the
     ablated (violating) object — each seed is a fresh property case;
     the generator's own seed is fixed where the suite is assembled *)
  QCheck.Test.make ~name:"undo = replay on random workloads" ~count:12
    QCheck.small_nat (fun seed ->
      let workloads =
        Workload.cas
          (Dtc_util.Prng.create (seed + 1))
          ~procs:2 ~ops_per_proc:2 ~values:2
      in
      let _, counters, samples_ok =
        matches_oracle ~mk:mk_no_vec ~workloads ~switches:1 ~crashes:1 ()
      in
      samples_ok && List.for_all (fun (_, want, got) -> want = got) counters)

let test_metrics_sanity () =
  let out =
    Modelcheck.Explore.explore
      ~mk:(fun () -> Test_support.mk_dcas ~n:2 ())
      ~workloads:[| [ Spec.cas_op (i 0) (i 1) ]; [ Spec.cas_op (i 0) (i 2) ] |]
      { Modelcheck.Explore.default_config with switch_budget = 1 }
  in
  let m = out.Modelcheck.Explore.metrics in
  Alcotest.(check bool) "visited set populated" true
    (m.Modelcheck.Explore.peak_visited > 0);
  Alcotest.(check bool) "throughput measured" true
    (m.Modelcheck.Explore.nodes_per_sec > 0.0);
  Alcotest.(check bool) "elapsed measured" true
    (m.Modelcheck.Explore.elapsed_s >= 0.0);
  Alcotest.(check int) "sequential run reports one domain" 1
    m.Modelcheck.Explore.domains_used;
  (* the depth histogram accounts for every visited node exactly once *)
  Alcotest.(check int) "depth histogram sums to nodes"
    out.Modelcheck.Explore.nodes
    (List.fold_left
       (fun acc (_, n) -> acc + n)
       0 m.Modelcheck.Explore.replay_depth_hist);
  (* histogram is sorted by depth with no duplicate buckets *)
  let depths = List.map fst m.Modelcheck.Explore.replay_depth_hist in
  Alcotest.(check bool) "histogram sorted" true
    (depths = List.sort_uniq compare depths)

let suites =
  [
    ( "modelcheck.explore",
      [
        Alcotest.test_case "deterministic replay" `Quick
          test_deterministic_replay;
        Alcotest.test_case "switch budget monotone" `Quick
          test_switch_budget_monotone;
        Alcotest.test_case "crash budget zero" `Quick
          test_crash_budget_zero_means_no_crash;
        Alcotest.test_case "configs up to equivalence" `Quick
          test_configs_counted_up_to_equivalence;
        Alcotest.test_case "crash_points coverage" `Quick
          test_crash_points_covers_all;
        Alcotest.test_case "violation sample" `Quick
          test_violation_reports_schedule;
        Alcotest.test_case "engines agree (dcas_no_vec)" `Quick
          test_engines_agree_no_vec;
        Alcotest.test_case "engines agree (rw_no_aux_reexec)" `Quick
          test_engines_agree_reexec;
        Alcotest.test_case "undo = replay (drw)" `Quick test_oracle_drw;
        Alcotest.test_case "undo = replay (dcas)" `Quick test_oracle_dcas;
        Alcotest.test_case "undo = replay (broken, violating)" `Quick
          test_oracle_broken_violating;
        Alcotest.test_case "undo = replay (parallel)" `Quick
          test_oracle_parallel;
        Alcotest.test_case "lin engines agree (drw)" `Quick
          test_lin_engines_agree_drw;
        Alcotest.test_case "lin engines agree (broken, violating)" `Quick
          test_lin_engines_agree_broken;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 14 |])
          prop_oracle_random_workloads;
        Alcotest.test_case "metrics sanity" `Quick test_metrics_sanity;
      ] );
  ]
