(* The metrics a run reports, and the human-readable report around them.
   End-to-end metrics come from the untraced pass; per-layer metrics from
   the traced pass, except where a name says otherwise.  NOTES.md gives
   each metric's definition and which end-to-end metric it should move. *)

type metric = string * float * string  (* name, value, unit *)

let mb words = float (words * (Sys.word_size / 8)) /. 1048576.

(* The classes of every workload, in report order. *)
let all_classes =
  [ "point"; "range"; "join"; "scan"; "set"; "rewrite"; "local"; "shard"; "quorum" ]

let classes_of (spec : Workloads.spec) =
  List.filter (fun c -> Array.mem c spec.classes) all_classes

(* The per-layer metric that holds a class's median latency. *)
let class_metric c =
  if Array.mem c Workloads.commit_classes then c ^ "_commit_p50_ms" else c ^ "_p50_ms"

let end_to_end spec (u : Pass.t) ~setup_s : metric list =
  let medians =
    List.map (fun c -> Probe.median (Pass.op_ms ~classes:[ c ] u)) (classes_of spec)
  in
  let gmean =
    exp (List.fold_left (fun a m -> a +. log m) 0. medians /. float (List.length medians))
  in
  [
    ("class_p50_gmean_ms", gmean, "ms");
    ("setup_s", setup_s, "s");
    ("space_amp", float u.space /. float u.live, "ratio");
    ("heap_peak_mb", mb u.top_heap_words, "MB");
  ]

(* Per-layer metrics of the traced pass [p]; the op-level figures (class
   medians, tail, throughput), the GC and host figures come from the
   untraced pass [u] of the same run.  A layer or class the workload does
   not reach reports 0. *)
let per_layer ~(untraced : Pass.t) (p : Pass.t) : metric list =
  let u = untraced in
  let n = Pass.ops p in
  let per_op name = Pass.ratio (Pass.counter p name) n in
  let hits = Pass.counter p "pool.hits" and misses = Pass.counter p "pool.misses" in
  let rows_examined =
    List.fold_left
      (fun a (name, v) -> if Probe.has_prefix name "plan.rows." then a + v else a)
      0 p.counters
  in
  let opens =
    List.concat
      (List.mapi
         (fun i cs ->
           if List.exists (fun c -> c.Probe.name = "open_db") cs then [ p.wal_kb.(i) ]
           else [])
         (Array.to_list p.calls))
  in
  let builds = Pass.builds p in
  List.map
    (fun c -> (class_metric c, Probe.median (Pass.op_ms ~classes:[ c ] u), "ms"))
    all_classes
  @ [
      ("op_p95_ms", Probe.quantile 0.95 (Pass.op_ms u), "ms");
      ("ops_per_s", Pass.ops_per_s u, "ops/s");
      ("engine.open_ms", Pass.call_ms p [ "open_db" ], "ms");
      ("engine.open_wal_kb", Probe.median opens, "KB");
      ("engine.close_ms", Pass.call_ms p [ "close" ], "ms");
      ("engine.commit_ms", Pass.call_ms ~classes:[ "set"; "local" ] p [ "commit" ], "ms");
      ("engine.save_table_ms", Pass.call_ms p [ "save_table" ], "ms");
      ("wal.appends_per_op", per_op "wal.appends", "records");
      ("wal.flushes_per_op", per_op "wal.flushes", "flushes");
      ("wal.append_bytes_per_op", per_op "wal.append_bytes", "bytes");
      ("wal.fsync_p50_us", p.fsync_p50_us, "us");
      ("pool.hit_ratio", Pass.ratio hits (hits + misses), "ratio");
      ("pool.misses_per_op", per_op "pool.misses", "pages");
      ("pool.evictions_per_op", per_op "pool.evictions", "pages");
      ("pager.reads_per_op", per_op "pager.reads", "pages");
      ("pager.writes_per_op", per_op "pager.writes", "pages");
      ("pager.syncs_per_op", per_op "pager.syncs", "syncs");
      ( "pager.write_amp",
        Pass.ratio (Pass.counter p "pager.writes" * Storage.Page.size) p.written,
        "ratio" );
      ("parse.us", 1000. *. Pass.call_ms p [ "parse" ], "us");
      ("render.ms", Pass.call_ms p [ "render" ], "ms");
      ("plan.make_ms", Pass.call_ms p [ "Plan.make" ], "ms");
      ("plan.plan_ms", Pass.call_ms p [ "Plan.plan" ], "ms");
      ("plan.pages_read", Pass.mean_fetches (Pass.calls p [ "Plan.plan" ]), "pages");
      ( "index.build_ms",
        Probe.median (List.map (fun c -> Probe.ms c.Probe.ns) builds),
        "ms" );
      ( "index.builds_per_op",
        Pass.ratio (List.length builds) (Pass.ops_calling p Pass.index_names),
        "builds" );
      ("index.build_pages_read", Pass.mean_fetches builds, "pages");
      ("index.ddl_ms", Pass.call_ms p [ "Indexes.create"; "Indexes.drop" ], "ms");
      ("exec.run_ms", Pass.call_ms p [ "Exec.run" ], "ms");
      ("exec.pages_read", Pass.mean_fetches (Pass.calls p [ "Exec.run" ]), "pages");
      ("exec.rows_examined_per_row", Pass.ratio rows_examined p.rows, "ratio");
      ("stats.analyze_ms", Pass.call_ms p [ "Stats.analyze" ], "ms");
      ("coord.commit_ms", Pass.call_ms ~classes:[ "shard" ] p [ "commit" ], "ms");
      ( "2pc.msgs_per_commit",
        Pass.ratio (Pass.counter p "2pc.msgs") (Pass.count_class p "shard"),
        "msgs" );
      ( "2pc.prepares_per_commit",
        Pass.ratio (Pass.counter p "2pc.prepares") (Pass.count_class p "shard"),
        "msgs" );
      ("group.commit_ms", Pass.call_ms ~classes:[ "quorum" ] p [ "commit" ], "ms");
      ( "repl.ship_bytes_per_commit",
        Pass.ratio (Pass.counter p "repl.ship_bytes") (Pass.count_class p "quorum"),
        "bytes" );
      ( "repl.quorum_ack_ratio",
        Pass.ratio (Pass.counter p "repl.quorum_acks") (Pass.counter p "repl.commits"),
        "ratio" );
      ("gc.minor_words_per_op", u.gc_minor_words /. float n, "words");
      ("gc.major_collections_per_op", float u.gc_major /. float n, "collections");
      ("host.ref_kernel_ms", Probe.median u.kernel_ms, "ms");
      ("trace.overhead_pct", 100. *. ((Pass.ops_per_s u /. Pass.ops_per_s p) -. 1.), "%");
      ("trace.dropped_spans", float p.dropped, "spans");
      ( "trace.coverage_pct",
        List.fold_left (fun a (_, c) -> Float.min a c) 100. (Pass.coverage p),
        "%" );
    ]

(* --- report ------------------------------------------------------------------ *)

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let print_metrics metrics =
  List.iter (fun (name, v, unit) -> Printf.printf "  %-30s %14.4f %s\n" name v unit) metrics

(* The result line: the last line of standard output. *)
let print_json ~correct ~attempted ~failed metrics =
  List.map
    (fun (name, v, unit) ->
      Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
    metrics
  |> String.concat ", "
  |> Printf.printf
       "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
       correct attempted failed

let print_classes spec (p : Pass.t) =
  Printf.printf "  %-8s %6s %10s %10s\n" "class" "ops" "p50_ms" "p95_ms";
  List.iter
    (fun c ->
      let xs = Pass.op_ms ~classes:[ c ] p in
      Printf.printf "  %-8s %6d %10.3f %10.3f\n" c (List.length xs) (Probe.median xs)
        (Probe.quantile 0.95 xs))
    (classes_of spec)

let print_checks (p : Pass.t) =
  List.iter
    (fun (name, ok) -> Printf.printf "  %-48s %s\n" name (if ok then "ok" else "FAILED"))
    p.checks

(* Facts about today's code that the traced pass shows, as opposed to
   pass/fail checks: page reads per class and phase, index builds per
   op, how open cost follows the log through the run, and span
   coverage. *)
let print_findings spec (p : Pass.t) =
  List.iter
    (fun c ->
      let classes = [ c ] in
      if Pass.calls ~classes p [ "Plan.plan" ] <> [] then
        Printf.printf
          "  %-8s plan.pages_read %.0f  index.builds/op %.2f  exec.pages_read %.0f\n" c
          (Pass.mean_fetches (Pass.calls ~classes p [ "Plan.plan" ]))
          (Pass.ratio (List.length (Pass.builds ~classes p)) (Pass.count_class p c))
          (Pass.mean_fetches (Pass.calls ~classes p [ "Exec.run" ])))
    (classes_of spec);
  if p.stats_pages > 0 then
    Printf.printf "  heap pages __stats records for r: %d\n" p.stats_pages;
  let n = Pass.ops p in
  if Pass.ops_calling p [ "open_db" ] > 0 then begin
    Printf.printf "  %-8s %14s %14s\n" "quarter" "open_ms p50" "open_wal_kb p50";
    for q = 0 to 3 do
      let first = q * n / 4 in
      let opens =
        List.concat
          (List.init (((q + 1) * n / 4) - first) (fun j ->
               List.filter_map
                 (fun c ->
                   if c.Probe.name = "open_db" then
                     Some (Probe.ms c.Probe.ns, p.wal_kb.(first + j))
                   else None)
                 p.calls.(first + j)))
      in
      Printf.printf "  %-8d %14.3f %14.1f\n" (q + 1)
        (Probe.median (List.map fst opens))
        (Probe.median (List.map snd opens))
    done
  end;
  List.iter
    (fun (c, pct) -> Printf.printf "  span coverage %-8s %.1f%%\n" c pct)
    (Pass.coverage p)
