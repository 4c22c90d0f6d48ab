(* The metric registry: named counters, gauges, and histograms with text
   and JSON renderers.  Instruments are plain mutable records handed out
   once at component-construction time, so the hot path is a field
   increment with no lookup; the shared [noop] registry makes an
   uninstrumented run pay only those increments (and no clock reads —
   histograms created on a disabled registry are inactive).

   Each instrumented module runs its constructor once at initialisation
   on [declared]; every other registry takes a name only as the kind
   declared there, so the declarations are the whole name set. *)

module Counter = struct
  type t = { mutable n : int }

  let make () = { n = 0 }
  let incr c = c.n <- c.n + 1
  let add c k = c.n <- c.n + k
  let value c = c.n
  let reset c = c.n <- 0
end

module Gauge = struct
  type t = { mutable v : int }

  let make () = { v = 0 }
  let set g v = g.v <- v
  let add g k = g.v <- g.v + k
  let value g = g.v
end

type instrument =
  | C of Counter.t
  | G of Gauge.t
  | H of Histogram.t

type entry = { name : string; unit_ : string; help : string; inst : instrument }

type t = {
  enabled : bool;
  by_name : (string, entry) Hashtbl.t;
}

let create () = { enabled = true; by_name = Hashtbl.create 64 }
let noop = { enabled = false; by_name = Hashtbl.create 64 }
let declared = { enabled = false; by_name = Hashtbl.create 128 }
let enabled t = t.enabled

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

(* The declaration of [name]: the name itself, or its family, the name
   with its last segment replaced by [*]. *)
let declaration name =
  match (Hashtbl.find_opt declared.by_name name, String.rindex_opt name '.') with
  | (Some _ as d), _ | (None as d), None -> d
  | None, Some i ->
      Hashtbl.find_opt declared.by_name (String.sub name 0 (i + 1) ^ "*")

let register t ~name ~unit_ ~help fresh reuse =
  match Hashtbl.find_opt t.by_name name with
  | Some entry -> (
      match reuse entry.inst with
      | Some i -> i
      | None ->
          invalid_arg
            (Printf.sprintf "Obs.Registry: %s already registered as a %s" name
               (kind_name entry.inst)))
  | None ->
      let inst, v = fresh () in
      (if t != declared then
         match declaration name with
         | Some d when kind_name d.inst = kind_name inst -> ()
         | d ->
             invalid_arg
               (Printf.sprintf "Obs.Registry: %s is not declared%s" name
                  (match d with
                  | None -> ""
                  | Some _ -> " as a " ^ kind_name inst)));
      Hashtbl.replace t.by_name name { name; unit_; help; inst };
      v

let counter t ?(unit = "ops") ?(help = "") name =
  register t ~name ~unit_:unit ~help
    (fun () ->
      let c = Counter.make () in
      (C c, c))
    (function C c -> Some c | _ -> None)

let gauge t ?(unit = "") ?(help = "") name =
  register t ~name ~unit_:unit ~help
    (fun () ->
      let g = Gauge.make () in
      (G g, g))
    (function G g -> Some g | _ -> None)

let histogram t ?(unit = "ns") ?(help = "") name =
  register t ~name ~unit_:unit ~help
    (fun () ->
      let h = Histogram.make ~active:t.enabled () in
      (H h, h))
    (function H h -> Some h | _ -> None)

let entries t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.by_name []
  |> List.sort (fun a b -> String.compare a.name b.name)

let names t = List.map (fun e -> e.name) (entries t)

type row = { name : string; kind : string; unit : string }

let rows t =
  List.map
    (fun (e : entry) ->
      { name = e.name; kind = kind_name e.inst; unit = e.unit_ })
    (entries t)

let find t name =
  Option.map (fun e -> e.inst) (Hashtbl.find_opt t.by_name name)

let counter_value t name =
  match find t name with Some (C c) -> Some (Counter.value c) | _ -> None

(* --- renderers ----------------------------------------------------------- *)

let percentiles = [ (0.5, "p50"); (0.95, "p95"); (0.99, "p99") ]

let to_text t =
  let buf = Buffer.create 512 in
  List.iter
    (fun { name; unit_; help; inst } ->
      (match inst with
      | C c ->
          Printf.bprintf buf "counter   %-32s %12d %s" name (Counter.value c) unit_
      | G g ->
          Printf.bprintf buf "gauge     %-32s %12d %s" name (Gauge.value g) unit_
      | H h ->
          Printf.bprintf buf "histogram %-32s count %d" name (Histogram.count h);
          if Histogram.count h > 0 then begin
            List.iter
              (fun (q, label) ->
                Printf.bprintf buf " %s %d" label (Histogram.percentile h q))
              percentiles;
            Printf.bprintf buf " max %d sum %d %s" (Histogram.max_value h)
              (Histogram.sum h) unit_
          end);
      if help <> "" then Printf.bprintf buf "  (%s)" help;
      Buffer.add_char buf '\n')
    (entries t);
  Buffer.contents buf

(* Stable by construction: entries sorted by name, keys in a fixed
   order, no floats except histogram means — diffs stay clean. *)
let to_json t =
  let buf = Buffer.create 512 in
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf "\n    "
  in
  let section kind filter render =
    first := true;
    Printf.bprintf buf "  %s: [" (Json.quote kind);
    let hit = ref false in
    List.iter
      (fun e ->
        match filter e.inst with
        | None -> ()
        | Some x ->
            hit := true;
            sep ();
            render e x)
      (entries t);
    if !hit then Buffer.add_string buf "\n  ";
    Buffer.add_string buf "]"
  in
  Buffer.add_string buf "{\n";
  section "counters"
    (function C c -> Some c | _ -> None)
    (fun e c ->
      Printf.bprintf buf "{\"name\": %s, \"value\": %d, \"unit\": %s}"
        (Json.quote e.name) (Counter.value c) (Json.quote e.unit_));
  Buffer.add_string buf ",\n";
  section "gauges"
    (function G g -> Some g | _ -> None)
    (fun e g ->
      Printf.bprintf buf "{\"name\": %s, \"value\": %d, \"unit\": %s}"
        (Json.quote e.name) (Gauge.value g) (Json.quote e.unit_));
  Buffer.add_string buf ",\n";
  section "histograms"
    (function H h -> Some h | _ -> None)
    (fun e h ->
      Printf.bprintf buf
        "{\"name\": %s, \"count\": %d, \"sum\": %d, \"max\": %d, \"p50\": %d, \
         \"p95\": %d, \"p99\": %d, \"unit\": %s}"
        (Json.quote e.name) (Histogram.count h) (Histogram.sum h)
        (Histogram.max_value h)
        (Histogram.percentile h 0.5)
        (Histogram.percentile h 0.95)
        (Histogram.percentile h 0.99)
        (Json.quote e.unit_));
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf
