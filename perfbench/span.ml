(* Wall-clock spans recorded by the benchmark around its calls into the
   library's public functions.  Spans stay in memory while a run is
   measured and are written out (Chrome trace-event JSON) afterwards, so
   recording one costs two clock reads, two GC counter reads and a cons. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, or -1 at top level *)
  run : int;  (** which measured iteration the span belongs to *)
  start : float;  (** seconds since the epoch *)
  stop : float;
  alloc_words : float;  (** words allocated between start and stop *)
}

let enabled = ref false
let run_id = ref 0
let recorded : t list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* [with_ name f] runs [f ()], recording a span around it when tracing is
   on; with tracing off it is a plain call. *)
let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let w0 = allocated_words () in
    let start = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      let alloc_words = allocated_words () -. w0 in
      stack := List.tl !stack;
      recorded :=
        { id; name; parent; run = !run_id; start; stop; alloc_words }
        :: !recorded
    in
    Fun.protect ~finally:finish f
  end

let spans () = List.rev !recorded
let duration s = s.stop -. s.start

(* Self time: the span's duration minus the part of it its children
   cover.  Children of one parent run one after another on a single
   domain, so their clipped durations add up without overlap. *)
let self_times spans =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value (Hashtbl.find_opt covered s.parent) ~default:0. in
        Hashtbl.replace covered s.parent (prev +. duration s))
    spans;
  List.map
    (fun s ->
      let c = Option.value (Hashtbl.find_opt covered s.id) ~default:0. in
      (s, Float.max 0. (duration s -. c)))
    spans

(* Total duration of every span with this name. *)
let total ~name spans =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. duration s else acc)
    0. spans

(* The Chrome trace-event format ("X" complete events, microseconds),
   which Perfetto and chrome://tracing open as is. *)
let to_chrome spans =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"run\":%d,\"alloc_b\":%.0f}}"
        s.name
        ((s.start -. t0) *. 1e6)
        (duration s *. 1e6)
        s.id s.parent s.run
        (s.alloc_words *. float_of_int (Sys.word_size / 8)))
    spans;
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b
