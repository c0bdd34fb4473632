(* In-memory span recorder for the traced run. Every call the benchmark
   makes into a layer of the controller is wrapped in [with_ name f];
   with recording off (the untraced run) that is [f ()] plus one branch.
   Spans nest along the call stack, so a layer's self time is its span's
   duration minus the part of it covered by child spans. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* id of the enclosing span, -1 at the top *)
  start : float;
  mutable stop : float;
}

let recording = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let now = Unix.gettimeofday

let reset () =
  spans := [];
  next_id := 0;
  stack := []

let with_ name f =
  if not !recording then f ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let id = !next_id in
    incr next_id;
    let s = { id; name; parent; start = now (); stop = nan } in
    spans := s :: !spans;
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- now ();
        stack := List.tl !stack)
      f
  end

(* Wall time of [f ()], whatever the recording state. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Per span name: (total self time in seconds, number of spans). *)
let self_times () =
  let all = !spans in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0. (Hashtbl.find_opt child_time s.parent) in
        Hashtbl.replace child_time s.parent (prev +. (s.stop -. s.start)))
    all;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        s.stop -. s.start
        -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id)
      in
      let t, n = Option.value ~default:(0., 0) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (t +. self, n + 1))
    all;
  by_name

let self_s tbl name =
  match Hashtbl.find_opt tbl name with Some (t, _) -> t | None -> 0.

(* One JSON object per span, oldest first. *)
let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"start\":%.9f,\"end\":%.9f}\n"
        s.id s.name s.parent s.start s.stop)
    (List.rev !spans);
  close_out oc
