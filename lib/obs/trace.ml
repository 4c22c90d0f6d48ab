(* Span tracing: a stack of open spans plus a bounded ring buffer of
   completed spans.  Events are stored as *complete* spans (name, start,
   duration, thread lane, depth), which makes ring-buffer eviction safe:
   dropping the oldest complete span can never orphan an end marker.
   The Chrome dump renders them as "X" (complete) trace_event records,
   which about:tracing and Perfetto nest by containment per lane. *)

type event = {
  name : string;
  tid : int;
  start_ns : int;
  dur_ns : int;
  depth : int;
  args : (string * string) list;
}

type open_span = {
  o_name : string;
  o_tid : int;
  o_start : int;
  o_args : (string * string) list;
}

type t = {
  enabled : bool;
  clock : unit -> int;
  capacity : int;
  ring : event option array;
  mutable next : int;  (* next write slot *)
  mutable recorded : int;  (* total events ever emitted *)
  mutable stack : open_span list;
}

let create ?(capacity = 4096) ?(clock = Clock.now_ns) () =
  if capacity < 1 then invalid_arg "Obs.Trace.create: capacity < 1";
  {
    enabled = true;
    clock;
    capacity;
    ring = Array.make capacity None;
    next = 0;
    recorded = 0;
    stack = [];
  }

let noop =
  {
    enabled = false;
    clock = (fun () -> 0);
    capacity = 1;
    ring = Array.make 1 None;
    next = 0;
    recorded = 0;
    stack = [];
  }

let enabled t = t.enabled
let now t = if t.enabled then t.clock () else 0
let depth t = List.length t.stack

let emit t ?(tid = 0) ?(args = []) ~name ~start_ns ~dur_ns () =
  if t.enabled then begin
    let event = { name; tid; start_ns; dur_ns; depth = depth t; args } in
    t.ring.(t.next) <- Some event;
    t.next <- (t.next + 1) mod t.capacity;
    t.recorded <- t.recorded + 1
  end

let begin_span t ?(tid = 0) ?(args = []) ?start_ns name =
  if t.enabled then
    let o_start =
      match start_ns with Some ns -> ns | None -> t.clock ()
    in
    t.stack <- { o_name = name; o_tid = tid; o_start; o_args = args } :: t.stack

let end_span t =
  if t.enabled then
    match t.stack with
    | [] -> invalid_arg "Obs.Trace.end_span: no open span"
    | span :: rest ->
        t.stack <- rest;
        emit t ~tid:span.o_tid ~args:span.o_args ~name:span.o_name
          ~start_ns:span.o_start
          ~dur_ns:(t.clock () - span.o_start)
          ()

let with_span t ?tid ?args ?start_ns name f =
  if not t.enabled then f ()
  else begin
    begin_span t ?tid ?args ?start_ns name;
    Fun.protect ~finally:(fun () -> end_span t) f
  end

let events t =
  (* oldest surviving first: the ring slot at [next] is the oldest *)
  List.filter_map
    (fun k -> t.ring.((t.next + k) mod t.capacity))
    (List.init t.capacity Fun.id)

let recorded t = t.recorded
let dropped t = max 0 (t.recorded - t.capacity)

let well_formed t =
  (* every recorded event was closed (complete) and no span is open *)
  t.stack = []

(* --- Chrome trace_event dump --------------------------------------------- *)

(* The JSON-object flavour of the trace_event format: a "traceEvents"
   array of phase-"X" (complete) events with microsecond timestamps,
   normalized so the trace starts at ts 0.  Opens directly in
   about:tracing and ui.perfetto.dev. *)
let to_chrome t =
  let events =
    List.sort (fun a b -> compare (a.start_ns, a.depth) (b.start_ns, b.depth))
      (events t)
  in
  let t0 = match events with [] -> 0 | e :: _ -> e.start_ns in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"traceEvents\": [";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n  ";
      Printf.bprintf buf
        "{\"name\": %s, \"cat\": \"dbmeta\", \"ph\": \"X\", \"pid\": 1, \
         \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f"
        (Json.quote e.name) e.tid
        (float_of_int (e.start_ns - t0) /. 1e3)
        (float_of_int e.dur_ns /. 1e3);
      if e.args <> [] then begin
        Buffer.add_string buf ", \"args\": {";
        List.iteri
          (fun j (k, v) ->
            if j > 0 then Buffer.add_string buf ", ";
            Printf.bprintf buf "%s: %s" (Json.quote k) (Json.quote v))
          e.args;
        Buffer.add_char buf '}'
      end;
      Buffer.add_char buf '}')
    events;
  Buffer.add_string buf "\n], \"displayTimeUnit\": \"ms\"}\n";
  Buffer.contents buf
