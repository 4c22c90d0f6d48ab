(* [db]: the persistent storage engine, and the sharded and replicated
   backends built over it. *)

open Cmdliner
open Cli

(* [--verify-wal]: run the offline WL passes over each (label, database)
   log as it sits on disk and fold any errors into the exit code — the
   dynamic layer closing the loop with `dbmeta lint wal`. *)
let wal_audit wals code =
  List.fold_left
    (fun code (label, path) ->
      let { Analysis.Wal_lint.report; anchor } =
        Analysis.Wal_lint.input_of_file (Storage.Engine.wal_path path)
      in
      let diags = Analysis.Wal_lint.lint ?anchor report in
      if diags = [] then begin
        Printf.printf "%s: clean (%d record(s), %d byte(s))\n" label
          (List.length report.Storage.Wal.records)
          report.Storage.Wal.total_bytes;
        code
      end
      else begin
        print_string (Analysis.Diagnostic.list_to_text diags);
        max code (Analysis.Diagnostic.exit_code diags)
      end)
    code wals

let shard_wals path n =
  List.init n (fun k ->
      ( Printf.sprintf "shard %d wal audit" k,
        Distributed.Coordinator.shard_path path k ))

(* a replication node's durable log length, read without opening it *)
let durable_bytes path k =
  (log_facts (Replication.Repl_meta.node_path path k)).clean

let positive flag n =
  if n <= 0 then
    invalid_arg (Printf.sprintf "%s must be positive, got %d" flag n);
  n

let report_recovery eng =
  (match Storage.Engine.last_repair eng with
  | Some { Storage.Engine.quarantined; replayed } ->
      Printf.printf
        "repair: quarantined %d corrupt page(s), rebuilt the item store \
         from %d logged write(s)\n"
        (List.length quarantined) replayed
  | None -> ());
  match Storage.Engine.last_recovery eng with
  | Some o -> Printf.printf "recovery: %s\n" (Storage.Recovery.outcome_to_string o)
  | None -> print_endline "recovery: log clean, nothing to do"

let db_init_run path force trace_file =
  input_error_to_exit @@ fun () ->
  if Sys.file_exists path && not force then
    invalid_arg
      (Printf.sprintf "%s already exists (use --force to overwrite)" path);
  if Sys.file_exists path then Sys.remove path;
  let wal = Storage.Engine.wal_path path in
  if Sys.file_exists wal then Sys.remove wal;
  with_db ~create:true ?trace_file path (fun eng ->
      Printf.printf "created %s (%d pages, wal at %s)\n" path
        (Storage.Pager.page_count (Storage.Engine.pager eng))
        wal;
      0)

let db_load_run path tables crash_after faults metrics trace_file =
  input_error_to_exit @@ fun () ->
  let db = load_tables tables in
  with_db ~create:true ?crash_after ?faults ?metrics ?trace_file path
    (fun eng ->
      Relational.Database.fold
        (fun name rel () ->
          Storage.Engine.save_table eng name rel;
          Printf.printf "loaded %s: %d tuples\n" name
            (Relational.Relation.cardinality rel))
        db ();
      0)

(* The default query path goes through the cost-based planner and the
   Volcano executor — tuples stream off heap pages and indexes, no table
   is materialized up front.  [--no-plan] keeps the pre-planner
   evaluator (materialize everything, Eval.eval) for comparison; the two
   print byte-identical results because the planner path realigns its
   output to the query's own schema. *)
let db_query_run path text no_plan no_optimize no_semantic optimize certify
    explain metrics trace_file =
  input_error_to_exit @@ fun () ->
  inspect_db ?metrics ?trace_file path (fun eng ->
      let expr = Relational.Query_parser.parse text in
      if no_plan then eval_logical (Storage.Engine.database eng) expr ~optimize
      else begin
        let config =
          {
            Planner.Plan.default_config with
            optimize = not no_optimize;
            semantic = not no_semantic;
          }
        in
        let ctx = Planner.Plan.make ~config eng in
        (* the query's own schema fixes the output column order, whatever
           shape the rewrites leave the plan in *)
        let schema =
          Relational.Algebra.schema_of (Planner.Plan.catalog ctx) expr
        in
        let plan = Planner.Plan.plan ctx expr in
        let certify_code =
          if not certify then 0
          else begin
            let report = Planner.Certify.certify ctx expr plan in
            List.iter
              (fun (s : Planner.Certify.stage) ->
                Printf.printf "certify: %s %s\n" s.Planner.Certify.name
                  (Planner.Certify.verdict_to_string s.Planner.Certify.verdict))
              report;
            let diags = Analysis.Semantic_lint.of_certify report in
            let errors =
              List.filter
                (fun d -> Analysis.Diagnostic.exit_code [ d ] = 1)
                diags
            in
            if errors <> [] then begin
              print_string (Analysis.Diagnostic.list_to_text errors);
              1
            end
            else 0
          end
        in
        if certify_code <> 0 then certify_code
        else
        match explain with
        | Some `Text ->
            print_string (Planner.Physical.to_text plan);
            0
        | Some `Json ->
            print_endline (Planner.Physical.to_json plan);
            0
        | None ->
            if optimize then
              Printf.printf "plan: %s\n"
                (Relational.Algebra.to_string
                   (Relational.Optimizer.optimize (Planner.Plan.catalog ctx)
                      (Planner.Stats.row_stats (Planner.Plan.stats ctx))
                      expr));
            let result = Planner.Exec.run ctx plan in
            print_string
              (Relational.Relation.to_string
                 (Relational.Relation.project result
                    (Relational.Schema.attributes schema)));
            0
      end)

let db_set_run path assignments abort crash_after faults trace_file =
  input_error_to_exit @@ fun () ->
  let parsed =
    List.map
      (fun spec ->
        match String.index_opt spec '=' with
        | Some i -> (
            let item = String.sub spec 0 i in
            let v = String.sub spec (i + 1) (String.length spec - i - 1) in
            match (item, int_of_string_opt v) with
            | "", _ | _, None ->
                invalid_arg
                  (Printf.sprintf "expected item=int, got %S" spec)
            | _, Some v -> (item, v))
        | None -> invalid_arg (Printf.sprintf "expected item=int, got %S" spec))
      assignments
  in
  with_db ~create:true ?crash_after ?faults ?trace_file path (fun eng ->
      let txn = Storage.Engine.begin_txn eng in
      List.iter (fun (item, v) -> Storage.Engine.write eng ~txn item v) parsed;
      if abort then begin
        Storage.Engine.abort eng ~txn;
        Printf.printf "txn %d aborted (writes rolled back)\n" txn
      end
      else begin
        Storage.Engine.commit eng ~txn;
        Printf.printf "txn %d committed: %d write(s)\n" txn (List.length parsed)
      end;
      0)

let db_get_run path items trace_file =
  input_error_to_exit @@ fun () ->
  inspect_db ?trace_file path (fun eng ->
      (match items with
      | [] ->
          List.iter
            (fun (item, v) -> Printf.printf "%s = %d\n" item v)
            (Storage.Engine.items eng)
      | items ->
          List.iter
            (fun item ->
              Printf.printf "%s = %d\n" item (Storage.Engine.read eng item))
            items);
      0)

let db_status_run path trace_file =
  input_error_to_exit @@ fun () ->
  (* the raw log, inspected before recovery rewrites it *)
  let raw = log_facts path in
  inspect_db ~facts:raw ?trace_file path (fun eng ->
      let pager = Storage.Engine.pager eng in
      Printf.printf "file: %s (format v1, %d pages of %d bytes)\n" path
        (Storage.Pager.page_count pager)
        Storage.Page.size;
      report_recovery eng;
      (* the walk from LSN 0 stops at the first invalid frame; one before
         the open's anchor is damage at rest the open walked over *)
      let from = Storage.Engine.walked_from eng and torn = raw.total - raw.clean in
      if torn > 0 && raw.clean < from then
        Printf.printf
          "wal: %d record(s) before an invalid frame at offset %d, which lies \
           before the anchor at %d: the open walks from the anchor and keeps \
           the log\n"
          raw.frames raw.clean from
      else
        Printf.printf "wal: %d surviving record(s) before open%s\n" raw.frames
          (if torn = 0 then "" else Printf.sprintf ", %d torn tail byte(s)" torn);
      Printf.printf "items: %d\n" (Storage.Engine.item_count eng);
      let tables = Storage.Engine.tables eng in
      Printf.printf "tables: %d\n" (List.length tables);
      List.iter
        (fun { Storage.Heap.name; schema; first; fences; stats } ->
          Printf.printf "  %s(%s) @ page %d: %d tuples%s\n" name
            (String.concat ", "
               (List.map
                  (fun (a, ty) -> a ^ ":" ^ Relational.Value.ty_to_string ty)
                  (Relational.Schema.pairs schema)))
            first
            (match stats with
            | Some { Storage.Heap.rows; _ } -> rows
            | None -> Relational.Relation.cardinality (Storage.Engine.load_table eng name))
            (match fences with
            | Some { Storage.Heap.root; count } ->
                Printf.sprintf ", %d pages fenced @ page %d" count root
            | None -> ""))
        tables;
      let count = count (Storage.Engine.metrics eng) in
      Printf.printf "buffer pool: %d/%d resident, %d hits, %d misses\n"
        (Storage.Buffer_pool.resident (Storage.Engine.pool eng))
        (Storage.Buffer_pool.capacity (Storage.Engine.pool eng))
        (count "pool.hits") (count "pool.misses");
      Printf.printf "free pages: %s\n"
        (match Storage.Engine.free_pages eng with
        | Some n -> string_of_int n
        | None -> "unknown");
      (* a replica family beside this file means the db is one node of a
         replication group: report its role from the descriptor *)
      (match Replication.Repl_meta.load_group path with
      | None -> ()
      | Some g ->
          let module M = Replication.Repl_meta in
          let p = durable_bytes path g.M.primary in
          let worst =
            List.fold_left
              (fun acc k ->
                if k = g.M.primary then acc
                else max acc (p - min p (durable_bytes path k)))
              0
              (List.init g.M.nodes Fun.id)
          in
          Printf.printf
            "replication: %s of %d node(s), epoch %d, sync=%s, worst lag \
             %d byte(s)\n"
            (if g.M.primary = 0 then "primary"
             else Printf.sprintf "replica (primary: node %d)" g.M.primary)
            g.M.nodes g.M.epoch
            (M.sync_mode_to_string g.M.sync)
            worst);
      0)

(* Sharded recovery is auto-detected: a dist base has no file of its
   own, only BASE.shardK files, so probing them cannot misfire on a
   single-node database. *)
let db_recover_run path verify_wal shards metrics trace_file =
  input_error_to_exit @@ fun () ->
  let found = Distributed.Coordinator.discover path in
  match Option.map (positive "--shards") shards with
  | None when found = 0 ->
      let code =
        with_db ?metrics ?trace_file path (fun eng ->
            report_recovery eng;
            Printf.printf "items: %d, tables: %d\n"
              (Storage.Engine.item_count eng)
              (List.length (Storage.Engine.table_names eng));
            0)
      in
      if verify_wal then wal_audit [ ("wal audit", path) ] code else code
  | Some _ when found = 0 ->
      invalid_arg (Printf.sprintf "no database at %s" path)
  | shards ->
      let n = Option.value shards ~default:found in
      observed ?metrics ?trace_file @@ fun metrics trace ->
      let coord =
        Distributed.Coordinator.open_dist ~shards:n ~metrics ~trace path
      in
      let completed, presumed = Distributed.Coordinator.resolved coord in
      Printf.printf
        "resolution: %d in-doubt transaction(s) — %d completed from the \
         coordinator's decision, %d presumed aborted\n"
        (completed + presumed) completed presumed;
      List.iteri
        (fun k o ->
          Printf.printf "shard %d recovery: %s\n" k
            (match o with
            | Some o -> Storage.Recovery.outcome_to_string o
            | None -> "log clean, nothing to do"))
        (Distributed.Coordinator.recoveries coord);
      Printf.printf "items: %d across %d shard(s)\n"
        (List.length (Distributed.Coordinator.items coord))
        n;
      Distributed.Coordinator.close coord;
      if verify_wal then wal_audit (shard_wals path n) 0 else 0

(* [db exec] runs one scheduler, Storage.Executor, over one of three
   backends: an engine, a 2PC coordinator over N shards (--shards), or
   a WAL-shipping replication group (--replicas).  A target carries what
   only its backend knows: extra report counters and lines, how to
   close it, its degraded line, its model check, and the WALs it leaves
   behind. *)
type exec_target = {
  backend : Storage.Executor.backend;
  close : unit -> unit;
  counters : Storage.Executor.stats -> string;
      (* ends the committed line; read as the run left the backend *)
  ticks : unit -> string;  (* ends the throughput line *)
  notes : unit -> string list;  (* lines after the throughput line *)
  degraded : unit -> string;
  divergence :
    unit -> ((string * int) list * (string * int) list) option;
  wals : (string * string) list;  (* audit label, database path *)
}

let local_target path ?faults ?crash_after ~metrics ~trace () =
  let eng = Storage.Engine.open_db ?crash_after ?faults ~metrics ~trace path in
  {
    backend = Storage.Executor.engine eng;
    close = (fun () -> Storage.Engine.close eng);
    counters =
      (fun _ ->
        let count = count metrics in
        Printf.sprintf "  repairs %d  io-retries %d" (count "engine.repairs")
          (count "pager.io_retries" + count "wal.io_retries"));
    ticks = (fun () -> "");
    notes = (fun () -> []);
    degraded = (fun () -> engine_degraded eng);
    divergence = (fun () -> Storage.Executor.model_divergence ~path);
    wals = [ ("wal audit", path) ];
  }

let dist_target path n ?faults ?crash_after ~metrics ~trace () =
  let module C = Distributed.Coordinator in
  let coord = C.open_dist ~shards:n ?faults ?crash_after ~metrics ~trace path in
  let completed, presumed = C.resolved coord in
  if completed + presumed > 0 then
    Printf.printf
      "resolution: %d in-doubt transaction(s) — %d completed, %d presumed \
       aborted\n"
      (completed + presumed) completed presumed;
  {
    backend = C.backend coord;
    close = (fun () -> C.close coord);
    counters =
      (fun s ->
        Printf.sprintf "  commit-aborts %d" s.Storage.Executor.commit_aborts);
    ticks = (fun () -> Printf.sprintf ", %d net ticks" (C.net_ticks coord));
    notes =
      (fun () ->
        match List.length (C.stranded_txns coord) with
        | 0 -> []
        | k ->
            [
              Printf.sprintf
                "stranded: %d decision(s) undelivered; their locks stay \
                 held and restart recovery will complete them"
                k;
            ]);
    degraded =
      (fun () ->
        "coordinator or shard degraded to read-only; unresolved \
         transactions are in doubt and will be settled by restart recovery");
    divergence = (fun () -> C.model_divergence ~path);
    wals = shard_wals path n;
  }

let repl_target path n sync ?faults ?crash_after ~metrics ~trace () =
  let module G = Replication.Group in
  let g =
    G.open_group ~replicas:n ~sync ?faults ?crash_after ~metrics ~trace path
  in
  Printf.printf "replication: %d node(s), sync=%s, epoch %d\n"
    (G.node_count g)
    (Replication.Repl_meta.sync_mode_to_string (G.sync_mode g))
    (G.epoch g);
  {
    backend = G.backend g;
    (* a deposed primary must not checkpoint or ship again *)
    close = (fun () -> if G.fenced g = None then G.close g else G.crash g);
    counters =
      (fun _ ->
        let acked, local = G.commits g in
        Printf.sprintf "  acked %d  local-only %d" acked local);
    ticks = (fun () -> "");
    notes =
      (fun () ->
        [
          Printf.sprintf "worst lag %d byte(s), %d net tick(s)" (G.lag g)
            (G.net_ticks g);
        ]);
    degraded =
      (fun () ->
        match G.fenced g with
        | Some e ->
            Printf.sprintf
              "primary fenced by epoch %d: a failover promoted another \
               node; this primary stopped accepting writes"
              e
        | None -> engine_degraded (G.primary g));
    divergence = (fun () -> G.model_divergence ~path);
    wals =
      List.init (G.node_count g) (fun k ->
          ( Printf.sprintf "node %d wal audit" k,
            Replication.Repl_meta.node_path path k ));
  }

let db_exec_run path shards replicas sync_mode txns ops items write_ratio skew
    seed faults crash_after timeout verify verify_wal metrics trace_file =
  input_error_to_exit @@ fun () ->
  let faults = Option.map Storage.Fault.spec_of_string faults in
  let params =
    {
      Transactions.Workload.txns;
      ops_per_txn = ops;
      items;
      skew;
      write_ratio;
    }
  in
  let programs = Transactions.Workload.generate (Support.Rng.create seed) params in
  Printf.printf
    "workload: %d txns x %d ops over %d items (%.0f%% writes, skew %.1f), \
     seed %d\n"
    txns ops items (write_ratio *. 100.) skew seed;
  (match faults with
  | Some s -> Printf.printf "faults: %s\n" (Storage.Fault.spec_to_string s)
  | None -> ());
  (* the hint is worded from the files the crash left *)
  let hint, open_target =
    match (shards, replicas) with
    | Some _, Some _ ->
        invalid_arg "--shards and --replicas are mutually exclusive"
    | Some n, None ->
        let n = positive "--shards" n in
        ((fun () -> sharded_hint path n), dist_target path n)
    | None, Some n ->
        let n = positive "--replicas" n in
        ((fun () -> replicated_hint path n), repl_target path n sync_mode)
    | None, None -> ((fun () -> local_hint path), local_target path)
  in
  observed ?metrics ?trace_file @@ fun metrics trace ->
  match open_target ?faults ?crash_after ~metrics ~trace () with
  | exception Storage.Fault.Crash at -> crashed (hint ()) at
  | t ->
      let module X = Storage.Executor in
      let config = { X.seed; lock_timeout = timeout } in
      let stats = X.run ~config t.backend programs in
      let counters = t.counters stats in
      if stats.X.crashed = None then (
        try t.close ()
        with Storage.Fault.Crash at ->
          t.backend.X.crash ();
          Printf.printf "simulated crash at close: %s\n" at);
      Printf.printf
        "committed %d/%d  restarts %d  deadlocks %d  timeouts %d%s\n"
        stats.X.committed txns stats.X.restarts stats.X.deadlocks
        stats.X.timeouts counters;
      Printf.printf
        "throughput: %.4f commits/step (%d steps, %d wasted ops%s)\n"
        (X.throughput stats) stats.X.steps stats.X.wasted_ops (t.ticks ());
      List.iter print_endline (t.notes ());
      let code =
        match stats.X.crashed with
        | Some { Storage.Fault.site; io_index } ->
            crashed (hint ()) (Printf.sprintf "%s (io %d)" site io_index)
        | None ->
            if stats.X.degraded then begin
              print_endline (t.degraded ());
              1
            end
            else if stats.X.committed = txns then 0
            else 1
      in
      let code =
        if verify then
          match t.divergence () with
          | None ->
              print_endline "model check: ok";
              code
          | Some (expected, actual) ->
              let show kv =
                String.concat ", "
                  (List.map (fun (i, v) -> Printf.sprintf "%s=%d" i v) kv)
              in
              Printf.printf
                "model check: DIVERGED\n  expected: %s\n  actual:   %s\n"
                (show expected) (show actual);
              1
        else code
      in
      if verify_wal then wal_audit t.wals code else code

let crash_after_arg =
  Arg.(value & opt (some int) None & info [ "crash-after" ] ~docv:"N"
         ~doc:"Fault injection: let $(docv) durable I/Os succeed, then \
               crash the engine mid-operation (a WAL flush crash leaves a \
               torn tail).  For demonstrating recovery.")

let faults_arg =
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC"
         ~doc:"Fault spec, comma-separated: $(b,crash=N) (crash budget), \
               $(b,torn=P) / $(b,flip=P) / $(b,eio=P) (per-I/O \
               probabilities of torn writes, bit flips, transient EIO), \
               $(b,drop=P) / $(b,delay=P) / $(b,part=P) (per-message \
               probabilities of dropped, late, and partitioned messages — \
               2PC exchanges under $(b,db exec --shards), WAL shipping \
               under $(b,db exec --replicas)), and $(b,seed=N) for the \
               fault RNG.  Any kind scopes to sites containing a \
               substring with $(b,kind@site=P), e.g. $(b,eio@read=0.3) \
               or $(b,drop@ship=1).  Example: \
               'crash=7,torn=0.1,eio@read=0.3,seed=42'.  The full \
               mini-language is docs/FAULTS.md.")

let db_init_cmd =
  let force =
    Arg.(value & flag & info [ "force" ] ~doc:"Overwrite an existing database.")
  in
  Cmd.v
    (Cmd.info "init" ~version ~doc:"Create an empty database file")
    Term.(const db_init_run $ db_file_arg $ force $ trace_arg)

let db_load_cmd =
  Cmd.v
    (Cmd.info "load" ~version ~doc:"Load CSV tables into the database")
    Term.(const db_load_run $ db_file_arg $ tables_arg $ crash_after_arg
          $ faults_arg $ metrics_arg $ trace_arg)

let db_query_cmd =
  let text =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY"
           ~doc:"Algebra expression over the stored tables.")
  in
  let no_plan =
    Arg.(value & flag & info [ "no-plan" ]
           ~doc:"Bypass the physical planner: materialize every table and \
                 run the logical evaluator (the pre-planner path, kept for \
                 comparison).")
  in
  let no_optimize =
    Arg.(value & flag & info [ "no-optimize" ]
           ~doc:"Compile the query as written, skipping the logical \
                 rewrite pipeline (access-path selection still applies).")
  in
  let no_semantic =
    Arg.(value & flag & info [ "no-semantic" ]
           ~doc:"Skip chase-based join elimination (the semantic rewrite \
                 that drops joins provable redundant under the recorded \
                 key dependencies).")
  in
  let certify =
    Arg.(value & flag & info [ "certify" ]
           ~doc:"Translation-validate the plan: replay every rewrite \
                 stage and the physical plan's logical shadow, proving \
                 each step equivalent by conjunctive-query containment \
                 under the recorded dependencies.  A refuted stage prints \
                 an SQ101/SQ102 error and exits 1 without executing.")
  in
  let optimize =
    Arg.(value & flag & info [ "O"; "optimize" ]
           ~doc:"Print the logically optimized plan before the results.")
  in
  let explain =
    Arg.(value
         & opt ~vopt:(Some `Text)
             (some (enum [ ("text", `Text); ("json", `Json) ]))
             None
         & info [ "explain" ] ~docv:"FORMAT"
             ~doc:"Print the chosen physical plan with cost estimates \
                   instead of executing: $(b,--explain) for an indented \
                   tree, $(b,--explain=json) for machine-readable JSON.")
  in
  Cmd.v
    (Cmd.info "query" ~version
       ~doc:"Evaluate a relational algebra query over stored tables \
             through the cost-based planner")
    Term.(const db_query_run $ db_file_arg $ text $ no_plan $ no_optimize
          $ no_semantic $ optimize $ certify $ explain $ metrics_arg
          $ trace_arg)

(* --- db index: the secondary-index catalog ----------------------------------- *)

let db_index_cmd =
  let table =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"TABLE"
           ~doc:"The indexed table.")
  in
  let attr =
    Arg.(required & pos 2 (some string) None & info [] ~docv:"COLUMN"
           ~doc:"The indexed column.")
  in
  let kind =
    Arg.(value
         & opt
             (enum
                [
                  ("btree", Planner.Indexes.Btree);
                  ("hash", Planner.Indexes.Hash);
                ])
             Planner.Indexes.Btree
         & info [ "kind" ] ~docv:"KIND"
             ~doc:"Index structure: $(b,btree) (point lookups, range and \
                   ordered scans) or $(b,hash) (point lookups only).")
  in
  (* create and drop differ only in the catalog change and its verb *)
  let change name ~doc verb apply =
    let run path table attr kind trace_file =
      input_error_to_exit @@ fun () ->
      with_db ?trace_file path (fun eng ->
          apply eng (Planner.Indexes.load eng)
            { Planner.Indexes.table; attr; kind };
          Printf.printf "%s %s index on %s(%s)\n" verb
            (Planner.Indexes.kind_to_string kind)
            table attr;
          0)
    in
    Cmd.v (Cmd.info name ~version ~doc)
      Term.(const run $ db_file_arg $ table $ attr $ kind $ trace_arg)
  in
  let create =
    change "create" "created"
      ~doc:"Register a secondary index (and count the statistics of a \
            table an older binary wrote)"
      (fun eng idx def ->
        Planner.Indexes.create eng idx def;
        ignore (Planner.Stats.analyze eng [ def.Planner.Indexes.table ] : Planner.Stats.t))
  in
  let drop =
    change "drop" "dropped" ~doc:"Remove a secondary index"
      Planner.Indexes.drop
  in
  let list_run path trace_file =
    input_error_to_exit @@ fun () ->
    inspect_db ?trace_file path (fun eng ->
        (match Planner.Indexes.defs (Planner.Indexes.load eng) with
        | [] -> print_endline "no indexes"
        | defs ->
            List.iter
              (fun d ->
                Printf.printf "%s(%s) %s\n" d.Planner.Indexes.table
                  d.Planner.Indexes.attr
                  (Planner.Indexes.kind_to_string d.Planner.Indexes.kind))
              defs);
        0)
  in
  let list =
    Cmd.v
      (Cmd.info "list" ~version ~doc:"List the registered indexes")
      Term.(const list_run $ db_file_arg $ trace_arg)
  in
  Cmd.group
    (Cmd.info "index" ~version
       ~doc:"Manage the secondary-index catalog the planner chooses \
             access paths from")
    [ create; drop; list ]

let db_set_cmd =
  let assignments =
    Arg.(non_empty & pos_right 0 string [] & info [] ~docv:"ITEM=VALUE"
           ~doc:"Integer assignments, applied in one transaction.")
  in
  let abort =
    Arg.(value & flag & info [ "abort" ]
           ~doc:"Roll the transaction back instead of committing \
                 (demonstrates undo).")
  in
  Cmd.v
    (Cmd.info "set" ~version
       ~doc:"Write items transactionally (WAL-protected)")
    Term.(const db_set_run $ db_file_arg $ assignments $ abort $ crash_after_arg
          $ faults_arg $ trace_arg)

let db_get_cmd =
  let items =
    Arg.(value & pos_right 0 string [] & info [] ~docv:"ITEM"
           ~doc:"Items to read; with none, every nonzero item is listed.")
  in
  Cmd.v
    (Cmd.info "get" ~version ~doc:"Read items from the transactional store")
    Term.(const db_get_run $ db_file_arg $ items $ trace_arg)

let db_status_cmd =
  Cmd.v
    (Cmd.info "status" ~version
       ~doc:"Show pages, tables, items, WAL and buffer-pool state")
    Term.(const db_status_run $ db_file_arg $ trace_arg)

let shards_arg =
  Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"N"
         ~doc:"Operate on the sharded database rooted at DB: $(docv) \
               independent engines at DB.shardN under a two-phase-commit \
               coordinator whose log lives at DB.2pc.")

let replicas_arg =
  Arg.(value & opt (some int) None & info [ "replicas" ] ~docv:"N"
         ~doc:"Replicate the database at DB to $(docv) replica copies at \
               DB.r1 … DB.rN: the primary ships its WAL after every \
               commit, and replicas apply it through continuous redo.  \
               The workload runs concurrently against the primary, under \
               the same scheduler as a single database.  The group \
               descriptor lives at DB.repl, the quorum-ack journal at \
               DB.acks.")

let sync_mode_arg =
  Arg.(value
       & opt
           (enum
              [ ("quorum", Replication.Repl_meta.Quorum);
                ("async", Replication.Repl_meta.Async) ])
           Replication.Repl_meta.Quorum
       & info [ "sync-mode" ] ~docv:"MODE"
           ~doc:"Commit acknowledgement mode for $(b,--replicas): \
                 $(b,quorum) acks a commit only after a majority of nodes \
                 hold its bytes (journaled durably first), $(b,async) \
                 acks after local durability and ships best-effort.")

(* --- db failover / db repl status: replication-group operations ------- *)

let db_failover_run path metrics trace_file =
  input_error_to_exit @@ fun () ->
  observed ?metrics ?trace_file @@ fun metrics trace ->
  let g = Replication.Group.open_group ~metrics ~trace path in
  let old = Replication.Group.primary_id g in
  let winner = Replication.Group.failover g in
  Printf.printf
    "failover: node %d promoted to primary (epoch %d); node %d rejoins \
     as a replica\n"
    winner
    (Replication.Group.epoch g)
    old;
  Replication.Group.catch_up g;
  Printf.printf "replicas healed; worst lag %d byte(s)\n"
    (Replication.Group.lag g);
  Replication.Group.close g;
  0

let db_failover_cmd =
  Cmd.v
    (Cmd.info "failover" ~version
       ~doc:"Promote the most-advanced eligible replica to primary: crash \
             the old primary, bump the fencing epoch, and heal the \
             remaining nodes (including the deposed primary, which \
             rejoins as a replica)")
    Term.(const db_failover_run $ db_file_arg $ metrics_arg $ trace_arg)

(* The whole report is computed from files — descriptor, node stamps,
   ack journal, and read-only WAL scans — so it works on the survivors
   of a crashed or fenced group without touching them. *)
let db_repl_status_run path =
  input_error_to_exit @@ fun () ->
  let module M = Replication.Repl_meta in
  let group = M.load_group path in
  let nodes =
    match group with Some g -> g.M.nodes | None -> M.discover path
  in
  if nodes < 2 then
    invalid_arg
      (Printf.sprintf
         "no replication group at %S (expected a descriptor at %s or \
          replica files %s, ...)"
         path (M.group_path path) (M.node_path path 1));
  let primary_id = match group with Some g -> g.M.primary | None -> 0 in
  (match group with
  | Some g ->
      Printf.printf "group: %d node(s), sync=%s, epoch %d, primary node %d\n"
        g.M.nodes
        (M.sync_mode_to_string g.M.sync)
        g.M.epoch g.M.primary
  | None ->
      Printf.printf "group: %d node(s), no descriptor (assuming node 0 \
                     primary)\n"
        nodes);
  let primary_clean = durable_bytes path primary_id in
  for k = 0 to nodes - 1 do
    let stamp = M.load_node (M.node_path path k) in
    let epoch_s, snap =
      match stamp with
      | Some (e, s) -> (string_of_int e, s)
      | None -> ("unstamped", 0)
    in
    if k = primary_id then
      Printf.printf "node %d: primary, epoch %s, %d byte(s) durable\n" k
        epoch_s primary_clean
    else
      let c = durable_bytes path k in
      Printf.printf
        "node %d: replica, epoch %s, %d/%d byte(s) (lag %d), snapshot @ %d\n"
        k epoch_s c primary_clean
        (primary_clean - min primary_clean c)
        snap
  done;
  (match M.load_acks path with
  | [] -> print_endline "acks: none journaled"
  | acks ->
      let last = List.nth acks (List.length acks - 1) in
      Printf.printf
        "acks: %d journaled (last: txn %d @ %d, epoch %d)\n"
        (List.length acks) last.M.txn last.M.lsn last.M.ack_epoch);
  0

let db_repl_cmd =
  let status =
    Cmd.v
      (Cmd.info "status" ~version
         ~doc:"Report a replication group's role, epoch, per-node lag, \
               and ack journal from its files alone (works on the \
               survivors of a crash)")
      Term.(const db_repl_status_run $ db_file_arg)
  in
  Cmd.group
    (Cmd.info "repl" ~version
       ~doc:"Inspect a WAL-shipping replication group")
    [ status ]

let db_recover_cmd =
  let verify_wal =
    Arg.(value & flag & info [ "verify-wal" ]
           ~doc:"After recovery, audit the rewritten log with the offline \
                 WAL verifier (codes WL001-WL010, same passes as \
                 $(b,dbmeta lint wal)) and fold any errors into the exit \
                 code; on a sharded database, every shard log is audited.")
  in
  Cmd.v
    (Cmd.info "recover" ~version
       ~doc:"Run restart recovery (on a sharded database: the 2PC \
             termination protocol, then every shard's recovery) and \
             report its outcome")
    Term.(const db_recover_run $ db_file_arg $ verify_wal $ shards_arg
          $ metrics_arg $ trace_arg)

let db_exec_cmd =
  let txns =
    Arg.(value & opt int 4 & info [ "txns" ] ~docv:"N"
           ~doc:"Concurrent transactions in the workload.")
  in
  let ops =
    Arg.(value & opt int 5 & info [ "ops" ] ~docv:"K"
           ~doc:"Operations per transaction.")
  in
  let items =
    Arg.(value & opt int 8 & info [ "items" ] ~docv:"M"
           ~doc:"Database size (items x0 … x(M-1)); smaller = hotter.")
  in
  let write_ratio =
    Arg.(value & opt float 0.5 & info [ "write-ratio" ] ~docv:"R"
           ~doc:"Fraction of operations that are writes.")
  in
  let skew =
    Arg.(value & opt float 0.5 & info [ "skew" ] ~docv:"Z"
           ~doc:"Zipf access skew; 0 = uniform.")
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S"
           ~doc:"Seed for the workload generator and the restart-backoff \
                 jitter; every run is reproducible from it.")
  in
  let timeout =
    Arg.(value & opt (some int) None & info [ "timeout" ] ~docv:"T"
           ~doc:"Lock-wait timeout in scheduler rounds (deadlocks are \
                 detected either way; this also bounds ordinary waits).")
  in
  let verify =
    Arg.(value & flag & info [ "verify" ]
           ~doc:"After the run, reopen the database and check its \
                 committed state against the Transactions.Recovery model \
                 of the surviving log.")
  in
  let verify_wal =
    Arg.(value & flag & info [ "verify-wal" ]
           ~doc:"After the run, audit the on-disk log with the offline \
                 WAL verifier (codes WL001-WL010, same passes as \
                 $(b,dbmeta lint wal)) and fold any errors into the exit \
                 code.")
  in
  Cmd.v
    (Cmd.info "exec" ~version
       ~doc:"Run an interleaved transaction workload under locking, \
             deadlock and timeout retry, and (optionally) injected \
             faults.  One scheduler runs it against every backend: a \
             single database, a sharded database under two-phase commit \
             ($(b,--shards)), or a WAL-shipping replication group \
             ($(b,--replicas)), so a seed makes the same locking \
             decisions on all three")
    Term.(const db_exec_run $ db_file_arg $ shards_arg $ replicas_arg
          $ sync_mode_arg $ txns $ ops $ items $ write_ratio $ skew $ seed
          $ faults_arg $ crash_after_arg $ timeout $ verify $ verify_wal
          $ metrics_arg $ trace_arg)

let cmd =
  let doc = "persistent storage: pager, buffer pool, WAL, recovery" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "A database file is a sequence of 4096-byte CRC-checked slotted \
         pages behind a header page; updates to the transactional item \
         store are protected by a binary write-ahead log, and every open \
         runs ARIES-lite restart recovery (redo from the last checkpoint, \
         then undo of uncommitted transactions).  $(b,--crash-after) \
         injects a crash at the Nth durable I/O so the recovery path can \
         be watched from the command line; $(b,--faults) widens the \
         injection to torn writes, bit flips, and transient EIO under a \
         seeded RNG.  Corrupt item-store pages are quarantined and \
         rebuilt from the log; an unflushable WAL degrades the engine to \
         read-only.  $(b,db exec) runs an interleaved workload under \
         shared/exclusive locking with deadlock detection and \
         victim retry.";
    ]
  in
  Cmd.group
    (Cmd.info "db" ~version ~doc ~man)
    [
      db_init_cmd; db_load_cmd; db_query_cmd; db_index_cmd; db_set_cmd;
      db_get_cmd; db_status_cmd; db_recover_cmd; db_exec_cmd; db_failover_cmd;
      db_repl_cmd;
    ]
