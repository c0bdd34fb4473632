(* The journaled switch driver shared by the simulator's control loop
   (Runner) and entropyd: switch numbering, the write-ahead
   Switch_begin/Switch_end bracket, executor dispatch, the repair chase
   of a degraded switch, the bookkeeping commit of an empty plan and the
   resume plan of a crashed controller. *)

(* capture the simulator's own log source before [open Entropy_core]
   shadows it with the core's *)
module Sim_log = Log

open Entropy_core
module Injector = Entropy_fault.Injector
module Repair = Entropy_fault.Repair
module Journal = Entropy_journal.Journal
module Jrecord = Entropy_journal.Record
module Recovery = Entropy_journal.Recovery

type repair = {
  at : float;
  switch : int;
  source : [ `Salvaged | `Replanned ];
  before : Configuration.t;
  target : Configuration.t;
  demand : Demand.t;
  queue : Vjob.t list;
  plan : Plan.t;
}

type t = {
  cluster : Cluster.t;
  journal : Journal.t option;
  emit : (Jrecord.t -> unit) option;
  should_fail : (Action.t -> bool) option;
  injector : Injector.t option;
  policy : Entropy_fault.Supervisor.policy option;
  max_repairs : int;
  execution : [ `Pools | `Continuous ];
  on_repair : repair -> unit;
  observe : unit -> Demand.t;
  queue : unit -> Vjob.t list;
  mutable next_id : int;
  mutable switches : Executor.record list;  (* newest first *)
}

type outcome =
  | Settled
  | Exhausted of { last : Executor.record; repairs : int }

let create ?should_fail ?injector ?policy ?(max_repairs = 4)
    ?(execution = `Pools) ?journal ?(on_repair = ignore) ~observe ~queue
    cluster =
  {
    cluster;
    journal;
    emit = Option.map (fun j r -> Journal.append j r) journal;
    should_fail;
    injector;
    policy;
    max_repairs;
    execution;
    on_repair;
    observe;
    queue;
    (* a journal opened on an earlier run (the resume path) continues
       its switch numbering instead of reusing ids *)
    next_id =
      (match journal with
      | Some j -> Recovery.next_switch_id (Journal.records j)
      | None -> 0);
    switches = [];
  }

let switches t = List.rev t.switches

(* Execute one plan; on a degraded switch, chase it with at most
   [max_repairs] immediate repair plans before handing back to [k]. *)
let rec exec t ~depth ~demand ~target plan ~k =
  let sw = t.next_id in
  let repairing = t.injector <> None in
  Option.iter
    (fun j ->
      t.next_id <- sw + 1;
      Journal.append j
        (Jrecord.Switch_begin
           {
             switch = sw;
             at_s = Cluster.now t.cluster;
             source = Cluster.config t.cluster;
             target;
             plan;
             demand;
             seed = Option.map Injector.seed t.injector;
           }))
    t.journal;
  let on_done (r : Executor.record) =
    Option.iter
      (fun j ->
        Journal.append j
          (Jrecord.Switch_end
             {
               switch = sw;
               at_s = Cluster.now t.cluster;
               aborted = r.Executor.aborted;
             }))
      t.journal;
    t.switches <- r :: t.switches;
    let degraded = r.Executor.failed > 0 in
    if repairing && degraded then
      if depth < t.max_repairs then chase t ~depth ~target r ~k
      else k (Exhausted { last = r; repairs = depth })
    else k Settled
  in
  match t.execution with
  | `Pools ->
    Executor.execute ?should_fail:t.should_fail ?injector:t.injector
      ?policy:t.policy ~abort_on_failure:repairing ?emit:t.emit ~switch:sw
      t.cluster plan ~on_done
  | `Continuous ->
    Executor.execute_continuous ?should_fail:t.should_fail
      ?injector:t.injector ?policy:t.policy ~abort_on_failure:repairing
      ?emit:t.emit ~switch:sw ~vjobs:(t.queue ()) t.cluster plan ~on_done

and chase t ~depth ~target (r : Executor.record) ~k =
  let demand = t.observe () in
  let before = Cluster.config t.cluster in
  let queue = t.queue () in
  match
    Repair.repair ~vjobs:queue ~current:before ~target ~demand ~queue
      ~failed_vms:r.Executor.failed_vms ~lost_nodes:r.Executor.lost_nodes ()
  with
  | Some o ->
    let now = Cluster.now t.cluster in
    Sim_log.info (fun m ->
        m "switch degraded at %.0fs (%d failed, %d node-losses): %a plan, \
           %d actions"
          now r.Executor.failed r.Executor.node_losses Repair.pp_source
          o.Repair.source
          (Plan.action_count o.Repair.plan));
    t.on_repair
      {
        at = now;
        (* the id the chased exec below journals under *)
        switch = t.next_id;
        source = o.Repair.source;
        before;
        target = o.Repair.target;
        demand;
        queue;
        plan = o.Repair.plan;
      };
    exec t ~depth:(depth + 1) ~demand ~target:o.Repair.target o.Repair.plan ~k
  | None ->
    (* nothing to repair towards right now (e.g. the packing needs no
       actions) *)
    k Settled

let run t ~demand ~target plan ~k =
  if Plan.is_empty plan then begin
    (* an empty plan can still carry state: every current/target
       difference that derives no action is pure bookkeeping (a finished
       vjob's suspended image discarded, a waiting VM cancelled). Commit
       it directly or the vjob never reaches Terminated — there is no
       action left that ever would. *)
    if not (Configuration.equal (Cluster.config t.cluster) target) then begin
      Sim_log.debug (fun m ->
          m "empty plan with bookkeeping-only target at %.0fs: committing \
             directly"
            (Cluster.now t.cluster));
      Cluster.set_config t.cluster target
    end;
    k Settled
  end
  else exec t ~depth:0 ~demand ~target plan ~k

(* -- crash recovery ----------------------------------------------------------- *)

type recovery = {
  reconciliation : Recovery.reconciliation;
  target : Configuration.t;
  plan : Plan.t;
  repaired : bool;
}

let recover ~vjobs ~observed (state : Recovery.switch_state) =
  let queue =
    List.filter
      (fun vj -> not (Configuration.vjob_terminated observed vj))
      vjobs
  in
  let reconciliation = Recovery.reconcile ~vjobs:queue ~state ~observed () in
  let target = reconciliation.Recovery.target in
  match reconciliation.Recovery.plan with
  | Some plan -> { reconciliation; target; plan; repaired = false }
  | None -> (
    (* divergence (or a stuck planner): hand the residue to repair *)
    match
      Repair.repair_residue ~vjobs:queue ~current:observed ~target
        ~demand:state.Recovery.demand ~queue reconciliation.Recovery.residue ()
    with
    | Some o ->
      {
        reconciliation;
        target = o.Repair.target;
        plan = o.Repair.plan;
        repaired = true;
      }
    | None ->
      (* nothing to repair towards: the caller's loop decides *)
      { reconciliation; target; plan = Plan.empty; repaired = true })
