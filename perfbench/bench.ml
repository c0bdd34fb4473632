(* Shared run machinery: the scratch directory, timing scaled to a
   reference speed, statistics, and the result of one run (metrics,
   operation counts, check failures). *)

(* -- scratch directory ----------------------------------------------------- *)

(* A fresh directory for the run's journals, removed at exit. It lies
   under [_build/], the build directory of the checkout the benchmark
   runs in, so a run writes nothing into the source tree. *)
let scratch =
  lazy
    (let dir = Filename.temp_dir ~temp_dir:"_build" "perfbench-" "" in
     (* a run stopped by a signal still removes its directory *)
     List.iter
       (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 130)))
       [ Sys.sigint; Sys.sigterm ];
     at_exit (fun () ->
         Array.iter
           (fun f -> Sys.remove (Filename.concat dir f))
           (try Sys.readdir dir with Sys_error _ -> [||]);
         try Unix.rmdir dir with Unix.Unix_error _ -> ());
     dir)

let scratch_file name =
  let path = Filename.concat (Lazy.force scratch) name in
  if Sys.file_exists path then Sys.remove path;
  path

(* -- calibration ------------------------------------------------------------- *)

(* Machine speed on a shared host drifts by 20-30% over tens of seconds,
   faster than a run. Each timed item (an instance, a batch, an episode,
   a set-up repetition) is therefore preceded by this fixed reference
   computation, and its wall time is scaled by [reference_s] over the
   reference's time just before it: the item's time on a machine running
   at the speed where the reference takes [reference_s]. The reference
   is benchmark code, so a change to the program moves only the item. *)
let reference_table = Array.make 65536 0

(* It allocates nothing, so its time does not depend on the state of
   the program's heap. *)
let reference () =
  let t0 = Unix.gettimeofday () in
  let a = reference_table and acc = ref 0 in
  for i = 0 to 600_000 do
    let j = (i * 7919 + !acc) land 65535 in
    a.(j) <- a.(j) + i;
    acc := (!acc + a.((j * 31) land 65535)) land 0xffff
  done;
  ignore (Sys.opaque_identity !acc);
  Unix.gettimeofday () -. t0

(* About the reference's time on the 2-core container the bounds were
   set on (see README.md), so scaled times read close to wall times
   there. *)
let reference_s = 0.0045

let reference_times = ref []

(* Time [f ()] as above: returns its result, its raw wall time and the
   scale to apply to it. *)
let timed_scaled f =
  let c = reference () in
  reference_times := c :: !reference_times;
  let r, dt = Span.timed f in
  (r, dt, reference_s /. c)

(* [f ()] and its scaled wall time. *)
let scaled f =
  let r, dt, scale = timed_scaled f in
  (r, dt *. scale)

(* -- statistics ------------------------------------------------------------ *)

(* Quartile [i] (1 or 3) as Python's [statistics.quantiles(xs, n=4)]
   computes it (the "exclusive" method) over a sorted sample. *)
let quartile sorted i =
  let ld = Array.length sorted in
  if ld = 1 then sorted.(0)
  else
    let m = ld + 1 in
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((sorted.(j - 1) *. float_of_int (4 - delta))
    +. (sorted.(j) *. float_of_int delta))
    /. 4.

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  (quartile a 1, median xs, quartile a 3)

(* Nearest-rank percentile of a sample ([p] in 0..1). *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs

(* -- run results ----------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

type result = {
  attempted : int;
  failed : int;
  failures : string list;  (* check failures; empty when correct *)
  failed_items : string list;
      (* why each failed batch or episode failed, one line each *)
  e2e : metric list;  (* untraced run *)
  layers : metric list;  (* traced run *)
  extra : (metric * bool) list;
      (* outcomes printed for reading, not gated; [true] when a pure
         function of the seed *)
}

let m name unit_ value = { name; value; unit_ }

(* What a workload's run hands back: values by metric name, outcomes
   [(name, unit, exact, value)] where [exact] marks a pure function of
   the seed, and why each batch or episode whose operations failed
   failed. *)
type run_out = {
  e2e_values : (string * float) list;
  layer_values : (string * float) list;
  outcomes : (string * string * bool * float) list;
  ops : int;
  ops_failed : int;
  check_failures : string list;
  failed_items : string list;
}

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* Run [round] repeatedly until [seconds] have passed (at least
   [min_rounds] times) and return every round's value. *)
let rounds ~seconds ~min_rounds round =
  let t_end = Unix.gettimeofday () +. seconds in
  let rec go acc n =
    if n >= min_rounds && Unix.gettimeofday () >= t_end then List.rev acc
    else go (round n :: acc) (n + 1)
  in
  go [] 0

(* Set-up time: [gen] is timed [per_rep] times back to back, on a
   compacted heap and scaled by the reference, in each of [reps]
   repetitions; the set-up time is the median over repetitions of the
   mean call. One call takes a few milliseconds, too short to time
   steadily on its own. The last call's value is kept. *)
let setup ?(reps = 15) ?(per_rep = 20) gen =
  let times = ref [] and last = ref None in
  for _ = 1 to reps do
    Gc.compact ();
    let (), dt, scale =
      timed_scaled (fun () ->
          for _ = 1 to per_rep do
            last := Some (gen ())
          done)
    in
    times := (dt *. scale /. float_of_int per_rep) :: !times
  done;
  (Option.get !last, median !times)

(* -- output ---------------------------------------------------------------- *)

let print_table title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun { name; value; unit_ } ->
      Printf.printf "  %-34s %16.6f %s\n" name value unit_)
    ms

let json_of_result ~trace r =
  let metrics = if trace then r.layers else r.e2e in
  let body =
    String.concat ", "
      (List.map
         (fun { name; value; unit_ } ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
             (if Float.is_finite value then value else 0.)
             unit_)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failures = []) r.attempted r.failed body
