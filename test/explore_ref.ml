(* Reference explorer: the delay-bounded DFS of [Modelcheck.Explore] in
   its most naive form.  Every node builds a fresh machine and session
   and re-executes its decision prefix from the root; there is no memo,
   no reduction, no undo journal and no domains, and every leaf is
   judged by the batch checker [Lin_check.check].  The library explorer
   with [prune = false] and [reduction = `None] must agree with it
   exactly — executions, truncated, nodes, violations, configurations
   and the violation samples (test_modelcheck.ml).

   The delay-bounding rules are the library's: at each node the crash
   child comes first (while crash budget remains) and clears the
   running process; then every runnable process, in pid order, where
   only a preemption — switching away from a running process that is
   still runnable — costs switch budget. *)

open History
open Sched
module E = Modelcheck.Explore

type outcome = {
  executions : int;
  truncated : int;
  nodes : int;
  total_violations : int;
  distinct_shared_configs : int;
  violations : E.violation list;  (** every violation, in DFS order *)
}

let explore ~mk ~workloads ?(policy = Session.Retry) ?(max_steps = 2_000)
    ~switch_budget ~crash_budget () =
  let configs = Modelcheck.Config_set.create () in
  let executions = ref 0 and truncated = ref 0 and nodes = ref 0 in
  let violations = ref [] in
  (* [path] is oldest-first *)
  let rec visit path cur switches crashes =
    incr nodes;
    let machine, inst = mk () in
    let session = Session.create ~policy machine inst ~workloads in
    List.iter
      (function
        | E.Step pid -> Session.step session pid
        | E.Crash -> Session.crash session ~keep:(fun _ -> true))
      path;
    ignore
      (Modelcheck.Config_set.add_live configs (Runtime.Machine.mem machine)
        : bool);
    let leaf () =
      let verdict =
        match Session.anomalies session with
        | a :: _ -> Lin_check.Violation ("driver anomaly: " ^ a)
        | [] -> Lin_check.check inst.Obj_inst.spec (Session.history session)
      in
      match verdict with
      | Lin_check.Ok_linearizable _ -> ()
      | Lin_check.Violation msg ->
          violations :=
            { E.decisions = path; history = Session.history session; msg }
            :: !violations
    in
    match Session.runnable session with
    | [] ->
        incr executions;
        leaf ()
    | _ when Session.steps session >= max_steps ->
        incr truncated;
        leaf ()
    | runnable ->
        if crashes < crash_budget then
          visit (path @ [ E.Crash ]) None switches (crashes + 1);
        List.iter
          (fun pid ->
            let cost =
              match cur with
              | Some c when c <> pid && List.mem c runnable -> 1
              | _ -> 0
            in
            if switches + cost <= switch_budget then
              visit (path @ [ E.step pid ]) (Some pid) (switches + cost)
                crashes)
          runnable
  in
  visit [] None 0 0;
  let violations = List.rev !violations in
  {
    executions = !executions;
    truncated = !truncated;
    nodes = !nodes;
    total_violations = List.length violations;
    distinct_shared_configs = Modelcheck.Config_set.cardinal configs;
    violations;
  }
