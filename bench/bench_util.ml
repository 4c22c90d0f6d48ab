(* Shared helpers for the benchmark targets: wall-clock timing, headers,
   and number formatting. *)

let now_ns () = Monotonic_clock.now ()

let time_ms f =
  let t0 = now_ns () in
  let result = f () in
  let t1 = now_ns () in
  (result, Int64.to_float (Int64.sub t1 t0) /. 1e6)

(* median-of-three timing to tame scheduler noise on fast functions *)
let timed f =
  let samples = List.init 3 (fun _ -> snd (time_ms f)) in
  List.nth (List.sort Float.compare samples) 1

let ms x = Printf.sprintf "%.2f" x
let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x
let f3 x = Printf.sprintf "%.3f" x
let i = string_of_int

let header title =
  let bar = String.make (String.length title + 8) '=' in
  Printf.printf "\n%s\n=== %s ===\n%s\n\n" bar title bar

let note fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n" s) fmt

(* --- machine-readable results (--json) ---------------------------------- *)

(* With --json, each target's recorded metrics are written to
   BENCH_<target>.json after the target runs; without it, [record] is
   free and nothing is written. *)

let json_mode = ref false

(* Base seed for targets that average over random workloads; set by the
   driver's --seed flag so a whole bench run is reproducible (and can be
   re-rolled) from the command line. *)
let seed = ref 0
let recorded : (string * float * string) list ref = ref []

let record ~metric ?(unit = "ms") value =
  recorded := (metric, value, unit) :: !recorded

(* A target that wants its observability counters embedded in the JSON
   dump installs a live registry here (see [fresh_registry]); everything
   else inherits the shared noop and pays nothing. *)
let registry : Obs.Registry.t ref = ref Obs.Registry.noop

let fresh_registry () =
  registry := Obs.Registry.create ();
  !registry

(* A count over a span of a run: [let moved = since registry in ...;
   moved "pool.hits"] is what the span added to that counter of
   [registry] (a counter registered inside the span started at 0).
   Components keep no counts of their own, and a registry may be shared
   ([noop] is, process-wide), so a span's count is always this delta. *)
let since registry =
  let count name =
    Option.value ~default:0 (Obs.Registry.counter_value registry name)
  in
  let at_start =
    List.map (fun name -> (name, count name)) (Obs.Registry.names registry)
  in
  fun name -> count name - Option.value ~default:0 (List.assoc_opt name at_start)

(* JSON numbers: [%g] would happily print [nan]/[inf], which are not
   JSON; a metric that isn't a finite number serializes as null. *)
let json_number x = if Float.is_finite x then Printf.sprintf "%g" x else "null"

let flush_json target =
  (* stable order: sort by metric name (insertion order for duplicates)
     so dumps from two runs diff cleanly *)
  let metrics =
    List.stable_sort
      (fun (a, _, _) (b, _, _) -> String.compare a b)
      (List.rev !recorded)
  in
  recorded := [];
  let reg = !registry in
  registry := Obs.Registry.noop;
  if !json_mode then begin
    let buf = Buffer.create 256 in
    Printf.bprintf buf "{\n  \"target\": %s,\n  \"metrics\": ["
      (Obs.Json.quote target);
    List.iteri
      (fun i (metric, value, unit) ->
        Printf.bprintf buf "%s\n    {\"metric\": %s, \"value\": %s, \"unit\": %s}"
          (if i = 0 then "" else ",")
          (Obs.Json.quote metric) (json_number value) (Obs.Json.quote unit))
      metrics;
    Buffer.add_string buf "\n  ]";
    if Obs.Registry.enabled reg then
      (* [to_json] is a complete object with sorted keys; splice it in *)
      Printf.bprintf buf ",\n  \"registry\": %s" (Obs.Registry.to_json reg);
    Buffer.add_string buf "\n}\n";
    let out = Buffer.contents buf in
    (match Obs.Json.validate out with
    | Ok _ -> ()
    | Error e -> failwith (Printf.sprintf "BENCH_%s.json: emitter bug: %s" target e));
    let file = Printf.sprintf "BENCH_%s.json" target in
    Support.Io.write_file file out;
    note "[json] wrote %s (%d metrics%s)" file (List.length metrics)
      (if Obs.Registry.enabled reg then ", + registry" else "")
  end
