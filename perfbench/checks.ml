(* Output checks, each recomputed here from first principles rather than
   through the controller's own validators: capacities from per-VM
   states, plan replay with the Fig. 2 transitions, the Table 1 /
   section 4.2 cost, completion and makespan bounds, flight attribution
   against spans read straight off the journal, and admission-queue
   depth rebuilt from Submission records. Every check returns the list
   of its failures; an empty list is a pass. *)

open Entropy_core
module Record = Entropy_journal.Record

let fail fmt = Printf.ksprintf (fun s -> [ s ]) fmt

(* -- configurations -------------------------------------------------------- *)

(* Per-node CPU and memory load of running VMs (and memory pinned by
   RAM images) against the node's capacity. *)
let within_capacity ~what config demand =
  let n = Configuration.node_count config in
  let cpu = Array.make n 0 and mem = Array.make n 0 in
  for vm = 0 to Configuration.vm_count config - 1 do
    let vm_mem = (Configuration.vm config vm).Vm.memory_mb in
    match Configuration.state config vm with
    | Configuration.Running h ->
      cpu.(h) <- cpu.(h) + Demand.cpu demand vm;
      mem.(h) <- mem.(h) + vm_mem
    | Configuration.Sleeping_ram h -> mem.(h) <- mem.(h) + vm_mem
    | Configuration.Waiting | Configuration.Sleeping _
    | Configuration.Terminated -> ()
  done;
  List.concat
    (List.init n (fun h ->
         let node = Configuration.node config h in
         if cpu.(h) > node.Node.cpu_capacity || mem.(h) > node.Node.memory_mb
         then
           fail "%s: node %d holds cpu %d/%d mem %d/%d" what h cpu.(h)
             node.Node.cpu_capacity mem.(h) node.Node.memory_mb
         else []))

(* -- plans ----------------------------------------------------------------- *)

(* One action applied to a per-VM state vector, with the precondition of
   its Fig. 2 life-cycle transition. *)
let step states (a : Action.t) =
  let need vm expected =
    if states.(vm) = expected then Ok () else Error vm
  in
  let set vm s r = Result.map (fun () -> states.(vm) <- s) r in
  match a with
  | Action.Run { vm; dst } ->
    set vm (Configuration.Running dst) (need vm Configuration.Waiting)
  | Action.Stop { vm; host } ->
    set vm Configuration.Terminated (need vm (Configuration.Running host))
  | Action.Migrate { vm; src; dst } ->
    set vm (Configuration.Running dst) (need vm (Configuration.Running src))
  | Action.Suspend { vm; host } ->
    set vm (Configuration.Sleeping host) (need vm (Configuration.Running host))
  | Action.Resume { vm; src; dst } ->
    set vm (Configuration.Running dst) (need vm (Configuration.Sleeping src))
  | Action.Suspend_ram { vm; host } ->
    set vm (Configuration.Sleeping_ram host)
      (need vm (Configuration.Running host))
  | Action.Resume_ram { vm; host } ->
    set vm (Configuration.Running host)
      (need vm (Configuration.Sleeping_ram host))

(* Whether a replayed end state realises the target state. Where a
   suspended image lands is decided by the suspend, not by the target;
   a VM that never ran is retired by bookkeeping, without an action. *)
let realises ~source ~final ~target =
  match (final, target) with
  | Configuration.Running a, Configuration.Running b -> a = b
  | Configuration.Sleeping _, Configuration.Sleeping _ -> true
  | Configuration.Sleeping_ram a, Configuration.Sleeping_ram b -> a = b
  | Configuration.Waiting, Configuration.Waiting -> true
  | Configuration.Terminated, Configuration.Terminated -> true
  | ( (Configuration.Waiting | Configuration.Sleeping _
      | Configuration.Sleeping_ram _),
      Configuration.Terminated ) -> final = source
  | _ -> false

let reaches_target ~what ~source ~target plan =
  let states =
    Array.init (Configuration.vm_count source) (Configuration.state source)
  in
  let bad_step =
    List.find_map
      (fun a -> match step states a with Ok () -> None | Error vm -> Some (vm, a))
      (Plan.actions plan)
  in
  match bad_step with
  | Some (vm, a) ->
    fail "%s: %s does not apply to VM %d in state %s" what
      (Fmt.str "%a" Action.pp a) vm
      (Fmt.str "%a" Configuration.pp_vm_state states.(vm))
  | None ->
    List.concat
      (List.init (Array.length states) (fun vm ->
           if
             realises ~source:(Configuration.state source vm)
               ~final:states.(vm) ~target:(Configuration.state target vm)
           then []
           else fail "%s: VM %d does not end in its target state" what vm))

(* Table 1 local cost: memory for a migration, a suspend and a local
   resume, twice that for a remote resume, nothing for the others. *)
let table1 config (a : Action.t) =
  let mem vm = (Configuration.vm config vm).Vm.memory_mb in
  match a with
  | Action.Migrate { vm; _ } | Action.Suspend { vm; _ } -> mem vm
  | Action.Resume { vm; src; dst } -> if src = dst then mem vm else 2 * mem vm
  | Action.Run _ | Action.Stop _ | Action.Suspend_ram _ | Action.Resume_ram _
    -> 0

(* Section 4.2: every action pays its local cost plus the cost of every
   pool before its own; a pool costs its most expensive action. *)
let plan_cost config plan =
  let total = ref 0 and elapsed = ref 0 in
  List.iter
    (fun pool ->
      let worst = ref 0 in
      List.iter
        (fun a ->
          let c = table1 config a in
          total := !total + !elapsed + c;
          worst := max !worst c)
        pool;
      elapsed := !elapsed + !worst)
    (Plan.pools plan);
  !total

let cost_matches ~what ~source ~reported plan =
  let derived = plan_cost source plan in
  if derived = reported then []
  else fail "%s: reported cost %d, Table 1 gives %d" what reported derived

let not_above_ffd ~what ~chosen ~ffd =
  if chosen <= ffd then []
  else fail "%s: chosen plan costs %d, above the FFD plan's %d" what chosen ffd

(* -- simulated outcomes ---------------------------------------------------- *)

let no_early_completion ~what ~submit ~min_duration ~completed =
  if completed +. 1e-9 >= submit +. min_duration then []
  else
    fail "%s: completed at %.3f, before submission %.3f + minimum %.3f" what
      completed submit min_duration

let makespan_bound ~what ~makespan ~total_compute ~cores =
  let bound = total_compute /. cores in
  if makespan +. 1e-9 >= bound then []
  else fail "%s: makespan %.3f below compute bound %.3f" what makespan bound

(* -- journals -------------------------------------------------------------- *)

(* Per switch id: (begin time, latest record time), journal order. *)
let switch_spans records =
  let tbl = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun r ->
      match r with
      | Record.Switch_begin { switch; at_s; _ } ->
        if not (Hashtbl.mem tbl switch) then order := switch :: !order;
        Hashtbl.replace tbl switch (at_s, at_s)
      | _ -> (
        let sw = Record.switch r in
        match Hashtbl.find_opt tbl sw with
        | Some (b, last) -> Hashtbl.replace tbl sw (b, Float.max last (Record.at_s r))
        | None -> ()))
    records;
  List.rev_map (fun sw -> (sw, Hashtbl.find tbl sw)) !order

let buckets_sum ~what ~spans ~switch ~bucket_total =
  match List.assoc_opt switch spans with
  | None -> fail "%s: switch %d has no journaled span" what switch
  | Some (b, last) ->
    if Float.abs (bucket_total -. (last -. b)) <= 1e-6 then []
    else
      fail "%s: switch %d buckets sum to %.9f, journaled span %.9f" what switch
        bucket_total (last -. b)

(* Admission queue depth replayed from Submission records: a queued
   submission enters, an admitted one that was queued leaves. *)
let max_queue_depth records =
  let queued = Hashtbl.create 64 in
  let depth = ref 0 and peak = ref 0 in
  List.iter
    (function
      | Record.Submission { vjob; disposition = Record.Queued; _ } ->
        if not (Hashtbl.mem queued vjob) then begin
          Hashtbl.replace queued vjob ();
          incr depth;
          peak := max !peak !depth
        end
      | Record.Submission { vjob; disposition = Record.Admitted | Record.Rejected _; _ }
        ->
        if Hashtbl.mem queued vjob then begin
          Hashtbl.remove queued vjob;
          decr depth
        end
      | _ -> ())
    records;
  !peak

let queue_below_cap ~what ~cap records =
  let peak = max_queue_depth records in
  if peak < cap then []
  else fail "%s: rebuilt queue depth reaches %d, cap %d" what peak cap

(* Per vjob, its dispositions in journal order. *)
let dispositions records =
  let tbl = Hashtbl.create 64 in
  List.iter
    (function
      | Record.Submission { vjob; disposition; _ } ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt tbl vjob) in
        Hashtbl.replace tbl vjob (disposition :: prev)
      | _ -> ())
    records;
  Hashtbl.fold (fun vjob ds acc -> (vjob, List.rev ds) :: acc) tbl []
  |> List.sort compare

let is_settled = function
  | Record.Admitted | Record.Rejected _ -> true
  | Record.Queued -> false

(* Every submission settles (admitted or rejected) exactly once, and
   once rejected is never admitted. *)
let settles_once ~what records =
  List.concat_map
    (fun (vjob, ds) ->
      let settled = List.filter is_settled ds in
      let rec rejected_then_admitted = function
        | Record.Rejected _ :: rest ->
          List.exists (fun d -> d = Record.Admitted) rest
          || rejected_then_admitted rest
        | _ :: rest -> rejected_then_admitted rest
        | [] -> false
      in
      (if List.length settled = 1 then []
       else
         fail "%s: submission %d settles %d times" what vjob
           (List.length settled))
      @
      if rejected_then_admitted ds then
        fail "%s: submission %d was rejected, then admitted" what vjob
      else [])
    (dispositions records)

(* Every VM of an admitted submission is terminated at the end, and no
   VM is left running or suspended. [admitted_vms] is the VM total the
   journal's Admitted records announce. *)
let admitted_terminated ~what ~admitted_vms config =
  let terminated = ref 0 and live = ref 0 in
  for vm = 0 to Configuration.vm_count config - 1 do
    match Configuration.state config vm with
    | Configuration.Terminated -> incr terminated
    | Configuration.Running _ | Configuration.Sleeping _
    | Configuration.Sleeping_ram _ -> incr live
    | Configuration.Waiting -> ()
  done;
  (if !live = 0 then [] else fail "%s: %d VMs still live at the end" what !live)
  @
  if !terminated = admitted_vms then []
  else
    fail "%s: %d VMs terminated, admitted submissions hold %d" what !terminated
      admitted_vms
