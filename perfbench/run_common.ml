(* The round loop shared by the workloads. A round is one pass of the
   workload's fixed work over the run's inputs; every round does the
   same operations on the same inputs, so its outputs must repeat
   exactly. The untraced run times every round with recording off; the
   traced run alternates untraced and traced rounds, so the traced-minus-
   untraced wall time is the tracing overhead. Every round starts on a
   compacted heap, so none pays for the previous one's garbage. *)

type 'o driven = {
  first : 'o;  (* the first round's outputs *)
  rounds : int;
  peak_heap_mb : float;  (* after set-up and the first round *)
  untraced_walls : float list;
  item_walls : float list list;  (* per untraced round, each item's wall *)
  traced_walls : float list;
  failures : string list;
}

(* [round ()] runs one round and returns its outputs with the wall time
   of the program work on each of its items (instances, batches or
   episodes); [check] runs on the first round's outputs, and later
   rounds must give the same [fingerprint]. *)
let drive ~seconds ~trace ~round ~fingerprint ~check =
  Span.reset ();
  let first = ref None and failures = ref [] and peak = ref 0. in
  let untraced = ref [] and traced = ref [] and items = ref [] in
  let walls =
    Bench.rounds ~seconds ~min_rounds:(if trace then 2 else 1) (fun i ->
        let tr = trace && i mod 2 = 1 in
        Gc.compact ();
        Span.recording := tr;
        let out, item_walls =
          Fun.protect ~finally:(fun () -> Span.recording := false) round
        in
        let wall = Bench.sum Fun.id item_walls in
        if not tr then items := item_walls :: !items;
        if tr then traced := wall :: !traced else untraced := wall :: !untraced;
        (match !first with
        | None ->
          first := Some out;
          peak := Bench.peak_heap_mb ();
          failures := check out
        | Some f ->
          if fingerprint out <> fingerprint f then
            failures :=
              Printf.sprintf "round %d: outputs differ from round 0 (%s vs %s)" i
                (fingerprint out) (fingerprint f)
              :: !failures);
        wall)
  in
  {
    first = Option.get !first;
    rounds = List.length walls;
    peak_heap_mb = !peak;
    untraced_walls = !untraced;
    item_walls = !items;
    traced_walls = !traced;
    failures = !failures;
  }

(* Per traced round: the self time of the named spans. *)
let layer_times d names =
  let tbl = Span.self_times () in
  let n = float_of_int (max 1 (List.length d.traced_walls)) in
  List.map (fun (metric, spans) ->
      (metric, Bench.sum (Span.self_s tbl) spans /. n))
    names

let overhead d =
  if d.traced_walls = [] then 0.
  else Bench.median d.traced_walls -. Bench.median d.untraced_walls

(* The round's wall time as the sum over its items (instances, batches,
   episodes) of each item's fastest untraced run. Interference from
   other work on the machine only ever adds time, and on a shared
   machine it comes and goes within seconds: an item's fastest run is
   its steadiest estimate. *)
let fastest_wall d =
  match d.item_walls with
  | [] -> nan
  | first :: rest ->
    Bench.sum Fun.id (List.fold_left (List.map2 Float.min) first rest)

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int
