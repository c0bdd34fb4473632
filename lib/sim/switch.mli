(** The journaled switch driver: the one place a decision becomes a
    cluster-wide context switch on the simulated cluster (the "execute"
    step of the paper's control loop, Fig. 4). {!Runner} and the
    [entropyd] daemon both drive their switches through it.

    A driver owns the whole life of a switch:
    - switch ids, numbered on from the attached journal;
    - the write-ahead bracket: [Switch_begin] goes durable before the
      first action starts, [Switch_end] only after the executor reports,
      so a kill anywhere in between leaves a journal that replays to the
      in-flight state;
    - dispatch to {!Executor.execute} or {!Executor.execute_continuous};
    - with an injector, the repair chase: a switch that terminally loses
      actions aborts at the pool boundary and is chased by at most
      [max_repairs] immediate repair plans, salvage or FFD replan;
    - the bookkeeping commit of an empty plan whose target still differs
      from the current configuration (a finished vjob's suspended image
      discarded, a waiting VM cancelled: differences no action derives);
    - the resume plan of a crashed controller ({!recover}). *)

open Entropy_core

type repair = {
  at : float;           (** simulated time of the repair decision *)
  switch : int;
      (** journal switch id the repair plan executes under (0 when no
          journal is attached) — lets flight-recorder analyses join a
          repair back to its journaled switch *)
  source : [ `Salvaged | `Replanned ];
  before : Configuration.t;  (** mid-switch configuration repaired from *)
  target : Configuration.t;  (** where the repaired plan ends *)
  demand : Demand.t;    (** demand the repair was planned against *)
  queue : Vjob.t list;  (** live vjobs at repair time *)
  plan : Plan.t;
}

type t

val create :
  ?should_fail:(Action.t -> bool) -> ?injector:Entropy_fault.Injector.t ->
  ?policy:Entropy_fault.Supervisor.policy -> ?max_repairs:int ->
  ?execution:[ `Pools | `Continuous ] -> ?journal:Entropy_journal.Journal.t ->
  ?on_repair:(repair -> unit) -> observe:(unit -> Demand.t) ->
  queue:(unit -> Vjob.t list) -> Cluster.t -> t
(** A driver for switches on [cluster]. [observe] polls the monitoring
    and returns the fresh demand a repair is planned against; [queue]
    returns the live, unterminated vjobs (the repair queue, and the
    vjob groups of continuous execution). [execution] defaults to
    [`Pools], the paper's model.

    [injector] turns on supervised execution under [policy] (see
    {!Executor.execute}), abort at the pool boundary after a terminal
    failure, and the repair chase, bounded by [max_repairs] (default 4)
    per switch; [on_repair] hears of every repair plan before it runs.
    [should_fail] is the executor's legacy failure hook; alone it
    neither aborts nor repairs.

    With [journal], switch ids continue from
    {!Entropy_journal.Recovery.next_switch_id} of its records, every
    switch is bracketed and every action transition journaled. Without
    one, every switch has id 0. *)

type outcome =
  | Settled
      (** the switch chain is over: the plan was empty, the last switch
          ran clean, or nothing was left to repair towards *)
  | Exhausted of { last : Executor.record; repairs : int }
      (** the chain spent its [max_repairs] repairs and its [last]
          switch still lost actions — counted by callers, never spun
          on *)

val run :
  t -> demand:Demand.t -> target:Configuration.t -> Plan.t ->
  k:(outcome -> unit) -> unit
(** Execute [plan] towards [target] as one journaled switch, chase it
    with repairs when it degrades, then call [k] once, when the chain
    is over (never when the engine stops mid-switch). [demand] is the
    demand the decision was made against. An empty plan runs no
    switch: when [target] differs from the current configuration the
    difference is committed directly, since no action would ever make
    it, and [k Settled] runs at once. *)

val switches : t -> Executor.record list
(** Every switch executed so far, repairs included, oldest first. *)

type recovery = {
  reconciliation : Entropy_journal.Recovery.reconciliation;
  target : Configuration.t;  (** where the resume plan ends *)
  plan : Plan.t;  (** empty when there is nothing to repair towards *)
  repaired : bool;
      (** the plan came from {!Entropy_fault.Repair.repair_residue}
          (divergent residue or stuck planner) rather than straight
          reconciliation *)
}

val recover :
  vjobs:Vjob.t list -> observed:Configuration.t ->
  Entropy_journal.Recovery.switch_state -> recovery
(** The resume plan of a crashed controller: reconcile the replayed
    in-flight switch against the [observed] configuration
    ({!Entropy_journal.Recovery.reconcile}) and, on divergence, hand
    its residue to repair. [vjobs] are the candidate vjobs; those
    already terminated in [observed] are left out. *)
