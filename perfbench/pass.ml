(* One pass over a workload's ops, the statistics drawn from it, and the
   determinism guard that compares the counts of two passes. *)

module W = Workloads

type t = {
  classes : string array;  (** op [i] has class [classes.(i mod length)] *)
  op_ns : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
      (** latency of each op, kept outside the OCaml heap the pass measures *)
  calls : Probe.call list array;  (** traced pass: each op's calls; else empty *)
  totals : (string * Probe.total) list;  (** per call name, over the ops *)
  failures : (int * string) list;  (** ops that raised or answered wrongly *)
  kernel_ms : float list;  (** host reference kernel samples *)
  counters : (string * int) list;  (** registry deltas across the ops *)
  wal_kb : float array;  (** traced pass: log size each op found at open *)
  gc_minor_words : float;
  gc_major : int;
  top_heap_words : int;
  space : int;  (** bytes on disk under db/ when the ops end *)
  live : int;  (** logical bytes of live user data *)
  written : int;  (** logical bytes the ops asked to write *)
  rows : int;  (** answer rows returned *)
  stats_pages : int;
  checks : (string * bool) list;  (** end-of-run checks *)
  spans : int;  (** spans the trace recorded, set-up included *)
  dropped : int;  (** spans the trace ring dropped *)
  fsync_p50_us : float;
}

(* The host reference kernel runs between ops, at most this often. *)
let kernel_interval_ns = 200_000_000

(* [run spec cfg probe inst ~n] makes ops 0 to [n - 1].  With
   [~pauses:(k, f)], [f] runs between ops, outside any timing, [k + 1]
   times: before the first op of each [k]-th of the ops, and after the
   last op. *)
let run ?pauses (spec : W.spec) cfg probe (inst : W.instance) ~n =
  let traced = probe.Probe.traced in
  let k, pause = Option.value pauses ~default:(0, ignore) in
  let c0 = Probe.counters probe in
  let op_ns = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  let calls = if traced then Array.make n [] else [||] in
  let wal_kb = if traced then Array.make n 0. else [||] in
  let failures = ref [] and kernel = ref [] in
  let gc0 = Gc.quick_stat () in
  let next_kernel = ref (Probe.now_ns () + kernel_interval_ns) in
  for i = 0 to n - 1 do
    if k > 0 && (i = 0 || i * k / n <> (i - 1) * k / n) then pause ();
    if traced then wal_kb.(i) <- float (inst.wal_bytes ()) /. 1024.;
    let cls = spec.classes.(i mod Array.length spec.classes) in
    let ns, op_calls, result = Probe.op probe ~id:i ~cls (fun () -> inst.run probe i) in
    op_ns.{i} <- ns;
    if traced then calls.(i) <- op_calls;
    (match result with
    | Ok check ->
        if not (try check () with _ -> false) then
          failures := (i, "a wrong answer") :: !failures
    | Error e -> failures := (i, "raised " ^ e) :: !failures);
    if Probe.now_ns () >= !next_kernel then begin
      let t0 = Probe.now_ns () in
      Probe.ref_kernel ();
      let t1 = Probe.now_ns () in
      kernel := Probe.ms (t1 - t0) :: !kernel;
      next_kernel := t1 + kernel_interval_ns
    end
  done;
  let gc1 = Gc.quick_stat () in
  if k > 0 then pause ();
  let counters = Probe.delta c0 (Probe.counters probe) in
  let space = W.dir_bytes (W.db_dir cfg) in
  let fsync_p50_us =
    if Option.value ~default:0 (List.assoc_opt "wal.flushes" counters) = 0 then 0.
    else
      float
        (Obs.Histogram.percentile
           (Obs.Registry.histogram probe.Probe.registry "wal.fsync_ns")
           0.5)
      /. 1000.
  in
  let checks = inst.finish () in
  {
    classes = spec.classes;
    op_ns;
    calls;
    totals = List.sort compare (List.of_seq (Hashtbl.to_seq probe.Probe.totals));
    failures = List.rev !failures;
    kernel_ms = !kernel;
    counters;
    wal_kb;
    gc_minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    gc_major = gc1.Gc.major_collections - gc0.Gc.major_collections;
    top_heap_words = gc1.Gc.top_heap_words;
    space;
    live = inst.live_bytes ();
    written = inst.written_bytes ();
    rows = inst.rows_out ();
    stats_pages = inst.stats_pages;
    checks;
    spans = Obs.Trace.recorded probe.Probe.trace;
    dropped = Obs.Trace.dropped probe.Probe.trace;
    fsync_p50_us;
  }

(* --- statistics ----------------------------------------------------------- *)

let ops p = Bigarray.Array1.dim p.op_ns
let class_of p i = p.classes.(i mod Array.length p.classes)
let wanted classes cls = match classes with None -> true | Some cs -> List.mem cls cs

let op_ms ?classes p =
  List.init (ops p) Fun.id
  |> List.filter_map (fun i ->
         if wanted classes (class_of p i) then Some (Probe.ms p.op_ns.{i}) else None)

let count_class p cls = List.length (op_ms ~classes:[ cls ] p)

(* Closed loop, one client: completed ops per second of op time. *)
let ops_per_s p = float (ops p) /. (List.fold_left ( +. ) 0. (op_ms p) /. 1000.)

let failed p = List.length p.failures
let counter p name = Option.value ~default:0 (List.assoc_opt name p.counters)
let ratio a b = if b = 0 then 0. else float a /. float b

(* Traced pass: the calls named [names], made by ops of [classes]
   (default: all). *)
let calls ?classes p names =
  List.concat
    (List.mapi
       (fun i cs ->
         if wanted classes (class_of p i) then
           List.filter (fun c -> List.mem c.Probe.name names) cs
         else [])
       (Array.to_list p.calls))

let call_ms ?classes p names =
  Probe.median (List.map (fun c -> Probe.ms c.Probe.ns) (calls ?classes p names))

let mean_fetches = function
  | [] -> 0.
  | cs -> ratio (List.fold_left (fun a c -> a + c.Probe.fetches) 0 cs) (List.length cs)

let index_names = [ "Indexes.btree"; "Indexes.hash" ]

(* An explicit index fetch that read pages built the structure; one
   served from the planning context's cache reads none. *)
let builds ?classes p =
  List.filter (fun c -> c.Probe.fetches > 0) (calls ?classes p index_names)

(* Traced pass: ops that made at least one [name] call. *)
let ops_calling p names =
  Array.fold_left
    (fun a cs -> if List.exists (fun c -> List.mem c.Probe.name names) cs then a + 1 else a)
    0 p.calls

(* Traced pass: per op class, the share of the ops' time their calls
   cover.  Calls do not nest, so their times add up. *)
let coverage p =
  List.sort_uniq compare (Array.to_list p.classes)
  |> List.map (fun cls ->
         let covered = ref 0 and total = ref 0 in
         Array.iteri
           (fun i cs ->
             if class_of p i = cls then begin
               total := !total + p.op_ns.{i};
               covered := List.fold_left (fun a c -> a + c.Probe.ns) !covered cs
             end)
           p.calls;
         (cls, 100. *. ratio !covered !total))

(* --- determinism guard ------------------------------------------------------ *)

(* The counts that must repeat exactly for a seed: the pager, WAL, 2PC
   and replication counters, the index and planning page counts, and the
   bytes on disk. *)
let guarded p =
  let layer =
    List.filter
      (fun (name, v) ->
        v <> 0 && List.exists (Probe.has_prefix name) [ "pager."; "wal."; "2pc."; "repl." ])
      p.counters
  in
  let sum field names =
    List.fold_left
      (fun a name ->
        match List.assoc_opt name p.totals with Some t -> a + field t | None -> a)
      0 names
  in
  List.sort compare layer
  @ [
      ("index.builds", sum (fun t -> t.Probe.reading) index_names);
      ("index.build_pages_read", sum (fun t -> t.Probe.pages) index_names);
      ("plan.pages_read", sum (fun t -> t.Probe.pages) [ "Plan.plan" ]);
      ("space_bytes", p.space);
    ]

(* Names whose counts differ, with both values. *)
let drift a b =
  List.sort_uniq compare (List.map fst a @ List.map fst b)
  |> List.filter_map (fun name ->
         let va = List.assoc_opt name a and vb = List.assoc_opt name b in
         if va = vb then None else Some (name, va, vb))

(* The guarded counts of the first run of this build, workload, seed and
   op count are kept under [dir]; a later such run is compared with them. *)
let against_earlier ~dir ~key counts =
  let build = String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12 in
  let file = Filename.concat dir (Printf.sprintf "%s-%s.txt" key build) in
  if Sys.file_exists file then
    String.split_on_char '\n' (Support.Io.read_file file)
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' line with
           | [ name; v ] -> Some (name, int_of_string v)
           | _ -> None)
    |> drift counts
  else begin
    Support.Io.write_file file
      (String.concat "" (List.map (fun (name, v) -> Printf.sprintf "%s %d\n" name v) counts));
    []
  end
