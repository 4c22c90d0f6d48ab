(* Timing and attribution around the program's public calls.

   A probe serves one pass over a workload's ops.  The untraced pass runs
   against the shared no-op registry and trace, exactly as the CLI does
   without --metrics: no clock is read inside an op, only the op's own
   start and end.  The traced pass hands a live registry and a live trace
   to every open call, and records one span per op and one child span per
   public call inside it.  All durations come from the monotonic clock;
   the trace only emits the spans.

   In both passes every call inside an op adds the buffer-pool fetches it
   made (the pool's hit and miss counters are plain fields, so this costs
   two reads) to a total per call name, which is what attributes page
   reads to planning, index builds and execution, and what the
   determinism guard compares between the passes.  Only the traced pass
   keeps each op's calls; the untraced pass keeps nothing per call, so
   that the heap it measures does not grow with the run.  Calls made
   outside an op (set-up, warm-up, checks) record nothing. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type call = { name : string; ns : int; fetches : int }
(** One public call inside an op of the traced pass: its name, its
    duration and the pool fetches it made. *)

type total = { mutable calls : int; mutable reading : int; mutable pages : int }
(** Per call name, over the ops of a pass: the calls made, how many of
    them fetched pages, and the fetches. *)

type t = {
  registry : Obs.Registry.t;
  trace : Obs.Trace.t;
  traced : bool;
  hits : Obs.Registry.Counter.t;
  misses : Obs.Registry.Counter.t;
  totals : (string, total) Hashtbl.t;
  mutable in_op : bool;
  mutable pending : call list;  (* traced pass: the running op's calls, newest first *)
}

let make ~traced ~trace_capacity =
  let registry, trace =
    if traced then
      (Obs.Registry.create (), Obs.Trace.create ~capacity:trace_capacity ())
    else (Obs.Registry.noop, Obs.Trace.noop)
  in
  {
    registry;
    trace;
    traced;
    hits = Obs.Registry.counter registry "pool.hits";
    misses = Obs.Registry.counter registry "pool.misses";
    totals = Hashtbl.create 32;
    in_op = false;
    pending = [];
  }

let fetches p =
  Obs.Registry.Counter.value p.hits + Obs.Registry.Counter.value p.misses

let total p name =
  match Hashtbl.find p.totals name with
  | t -> t
  | exception Not_found ->
      let t = { calls = 0; reading = 0; pages = 0 } in
      Hashtbl.add p.totals name t;
      t

let count p name pages =
  let t = total p name in
  t.calls <- t.calls + 1;
  if pages > 0 then t.reading <- t.reading + 1;
  t.pages <- t.pages + pages

(* [call p name f] runs one public call of the program under test. *)
let call p name f =
  if not p.in_op then f ()
  else if not p.traced then begin
    let f0 = fetches p in
    let r = f () in
    count p name (fetches p - f0);
    r
  end
  else begin
    let f0 = fetches p and t0 = now_ns () in
    let r = Obs.Trace.with_span p.trace name f in
    let ns = now_ns () - t0 and pages = fetches p - f0 in
    count p name pages;
    p.pending <- { name; ns; fetches = pages } :: p.pending;
    r
  end

(* [op p ~id ~cls f] times one op: its latency, its calls (traced pass
   only) and [f]'s result, or the exception [f] raised. *)
let op p ~id ~cls f =
  p.pending <- [];
  p.in_op <- true;
  let body () =
    match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)
  in
  let t0 = now_ns () in
  let result =
    if p.traced then
      Obs.Trace.with_span p.trace
        ~args:[ ("op", string_of_int id); ("class", cls) ]
        "op" body
    else body ()
  in
  let ns = now_ns () - t0 in
  p.in_op <- false;
  (ns, List.rev p.pending, result)

let has_prefix s pre =
  String.length s >= String.length pre
  && String.sub s 0 (String.length pre) = pre

(* Every counter of the probe's registry, by name. *)
let counters p =
  List.filter_map
    (fun name ->
      Option.map (fun v -> (name, v)) (Obs.Registry.counter_value p.registry name))
    (Obs.Registry.names p.registry)

(* [delta before after]: per-name increase; names first seen in [after]
   start from 0. *)
let delta before after =
  List.map
    (fun (name, v) ->
      (name, v - Option.value ~default:0 (List.assoc_opt name before)))
    after

(* A fixed integer kernel of about 2 ms on the reference host; its time
   tracks the host's CPU speed, not the program's. *)
let ref_kernel () =
  let x = ref 0 in
  for i = 1 to 1_000_000 do
    x := ((!x * 31) + i) land 0xFFFFFF
  done;
  ignore (Sys.opaque_identity !x)

(* Order statistics of a sample; 0 on an empty one. *)
let median xs = Support.Stats.median (Array.of_list xs)
let quantile q xs = Support.Stats.percentile (Array.of_list xs) (100. *. q)

let ms ns = float ns /. 1e6
