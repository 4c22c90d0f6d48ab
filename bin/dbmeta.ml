(* dbmeta — the command-line face of the library: a Datalog engine, a
   schema-design tool, a schedule analyzer, and a DIMACS SAT solver. *)

open Cmdliner

let version = "1.9.0"

let read_file = Support.Io.read_file

(* Bad user input (unparseable files, queries, schedules, ill-typed
   plans, unsafe programs) is reported on stderr and exits 2; only
   genuine bugs may escape as a backtrace. *)
let input_error_to_exit f =
  let fail msg =
    Printf.eprintf "dbmeta: %s\n" msg;
    2
  in
  try f () with
  | Datalog.Parser.Parse_error msg
  | Calculus.Parser.Parse_error msg
  | Relational.Query_parser.Parse_error msg
  | Relational.Csv.Parse_error msg
  | Datalog.Checks.Unsafe_rule msg
  | Datalog.Checks.Not_stratifiable msg
  | Relational.Schema.Schema_error msg
  | Relational.Algebra.Type_error msg
  | Relational.Value.Type_clash msg
  | Invalid_argument msg
  | Failure msg ->
      fail msg
  | Relational.Database.Unknown_relation name ->
      fail (Printf.sprintf "unknown relation %S" name)
  | Relational.Codec.Corrupt msg ->
      fail (Printf.sprintf "corrupt record: %s" msg)
  | Storage.Pager.Corrupt msg ->
      fail (Printf.sprintf "corrupt database: %s" msg)
  | Storage.Engine.Unknown_table name ->
      fail (Printf.sprintf "no table %S in the database" name)
  | Planner.Indexes.Index_error msg -> fail msg
  | Sys_error msg -> fail msg

let load_tables tables =
  List.fold_left
    (fun db spec ->
      match String.index_opt spec '=' with
      | Some i ->
          let name = String.sub spec 0 i in
          let path = String.sub spec (i + 1) (String.length spec - i - 1) in
          Relational.Database.add db name (Relational.Csv.load path)
      | None ->
          raise
            (Invalid_argument
               (Printf.sprintf "--table expects name=file.csv, got %S" spec)))
    Relational.Database.empty tables

(* --- observability plumbing -------------------------------------------------- *)

(* [--metrics] prints the registry to stderr after the command, so the
   metrics block composes with (never corrupts) the command's stdout:
   `dbmeta db exec db --metrics=json 2>metrics.json` just works. *)
let metrics_arg =
  Arg.(value
       & opt ~vopt:(Some `Text)
           (some (enum [ ("text", `Text); ("json", `Json) ]))
           None
       & info [ "metrics" ] ~docv:"FORMAT"
           ~doc:"Collect runtime metrics and print the registry to stderr \
                 after the command: $(b,--metrics) for a text table, \
                 $(b,--metrics=json) for stable machine-readable JSON.  See \
                 docs/OBSERVABILITY.md for the metric name catalogue.")

let registry_of = function
  | None -> Obs.Registry.noop
  | Some _ -> Obs.Registry.create ()

let dump_metrics fmt registry =
  match fmt with
  | None -> ()
  | Some `Text -> prerr_string (Obs.Registry.to_text registry)
  | Some `Json -> prerr_string (Obs.Registry.to_json registry)

(* [--trace=FILE] records spans while the command runs and writes them
   afterwards as a Chrome trace, reporting the count on stderr. *)
let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Record spans (restart recovery, checkpoints, WAL flushes, \
               commits and aborts, and under $(b,db exec) each \
               transaction incarnation per executor slot) and write them \
               as Chrome trace_event JSON to $(docv) — open it in \
               about:tracing or ui.perfetto.dev.")

let trace_of = function
  | None -> Obs.Trace.noop
  | Some _ -> Obs.Trace.create ()

let write_trace file trace =
  match file with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc (Obs.Trace.to_chrome trace);
      close_out oc;
      Printf.eprintf "trace: %d span(s) written to %s (%d dropped)\n"
        (List.length (Obs.Trace.events trace))
        file (Obs.Trace.dropped trace)

(* --- datalog run ----------------------------------------------------------- *)

let datalog_run file query engine explain metrics =
  input_error_to_exit @@ fun () ->
  let program = Datalog.Parser.parse_program (read_file file) in
  Datalog.Checks.check_safety program;
  let edb = Datalog.Facts.empty in
  let registry = registry_of metrics in
  (* the datalog.* instruments live in the semi-naive evaluator; --metrics
     therefore reports empty counters under --engine=naive *)
  let seminaive prog edb =
    fst (Datalog.Seminaive.eval_with_stats ~metrics:registry prog edb)
  in
  let code =
    match query with
    | None ->
        let result =
          match engine with
          | `Naive -> Datalog.Naive.eval program edb
          | `Seminaive | `Magic -> seminaive program edb
        in
        let idb = Datalog.Ast.idb_predicates program in
        List.iter
          (fun pred ->
            Datalog.Facts.Tuple_set.iter
              (fun tup ->
                Printf.printf "%s(%s).\n" pred
                  (String.concat ", "
                     (Array.to_list
                        (Array.map Relational.Value.to_literal tup))))
              (Datalog.Facts.get result pred))
          idb;
        0
    | Some q ->
        let q = Datalog.Parser.parse_query q in
        let answers =
          match engine with
          | `Naive -> Datalog.Naive.query program edb q
          | `Seminaive ->
              Datalog.Naive.filter_by_query
                (Datalog.Facts.get (seminaive program edb) q.Datalog.Ast.pred)
                q
          | `Magic -> Datalog.Magic.query program edb q
        in
        let provenance =
          if explain then Some (snd (Datalog.Provenance.eval program edb))
          else None
        in
        Datalog.Facts.Tuple_set.iter
          (fun tup ->
            Printf.printf "%s(%s).\n" q.Datalog.Ast.pred
              (String.concat ", "
                 (Array.to_list (Array.map Relational.Value.to_literal tup)));
            match provenance with
            | Some store ->
                print_string (Datalog.Provenance.explain store q.Datalog.Ast.pred tup)
            | None -> ())
          answers;
        0
  in
  dump_metrics metrics registry;
  code

let datalog_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Datalog program (rules and facts).")
  in
  let query =
    Arg.(value & opt (some string) None & info [ "q"; "query" ] ~docv:"QUERY"
           ~doc:"Query atom, e.g. 'path(1, X)'. Without it, every IDB \
                 predicate is dumped.")
  in
  let engine =
    Arg.(value
         & opt (enum [ ("naive", `Naive); ("seminaive", `Seminaive); ("magic", `Magic) ])
             `Seminaive
         & info [ "e"; "engine" ] ~docv:"ENGINE"
             ~doc:"Evaluation strategy: naive, seminaive, or magic (magic \
                   requires a positive program and a query).")
  in
  let explain =
    Arg.(value & flag & info [ "explain" ]
           ~doc:"Print a proof tree under each answer (why-provenance).")
  in
  Cmd.v
    (Cmd.info "datalog" ~version ~doc:"Evaluate a Datalog program")
    Term.(const datalog_run $ file $ query $ engine $ explain $ metrics_arg)

(* --- query ------------------------------------------------------------------- *)

let query_run text tables optimize =
  input_error_to_exit @@ fun () ->
  let db = load_tables tables in
  let expr = Relational.Query_parser.parse text in
  let catalog = Relational.Algebra.catalog_of_database db in
  let expr =
    if optimize then
      Relational.Optimizer.optimize catalog
        (Relational.Optimizer.stats_of_database db)
        expr
    else expr
  in
  if optimize then
    Printf.printf "plan: %s\n" (Relational.Algebra.to_string expr);
  print_string (Relational.Relation.to_string (Relational.Eval.eval db expr));
  0

let query_cmd =
  let text =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY"
           ~doc:"Algebra expression, e.g. \
                 'project[sname](select[grade >= 85](students join enrolled))'.")
  in
  let tables =
    Arg.(value & opt_all string [] & info [ "t"; "table" ] ~docv:"NAME=FILE"
           ~doc:"Bind a relation name to a CSV file (repeatable). The CSV \
                 header carries the schema as name:type pairs.")
  in
  let optimize =
    Arg.(value & flag & info [ "O"; "optimize" ]
           ~doc:"Run the optimizer and print the chosen plan.")
  in
  Cmd.v
    (Cmd.info "query" ~version ~doc:"Evaluate a relational algebra query over CSV tables")
    Term.(const query_run $ text $ tables $ optimize)

(* --- calculus ----------------------------------------------------------------- *)

let calculus_run text tables interpret show_plan =
  input_error_to_exit @@ fun () ->
  let q = Calculus.Parser.parse_query text in
  let db = load_tables tables in
  Printf.printf "query: %s\n" (Calculus.Formula.query_to_string q);
  Printf.printf "safety: %s\n"
    (Calculus.Safety.explain (Calculus.Safety.is_safe_range q));
  let result =
    if interpret then Calculus.Active_domain.eval db q
    else begin
      let plan = Calculus.To_algebra.translate_query db q in
      if show_plan then
        Printf.printf "plan: %s\n" (Relational.Algebra.to_string plan);
      Relational.Eval.eval db plan
    end
  in
  print_string (Relational.Relation.to_string result);
  0

let calculus_cmd =
  let text =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY"
           ~doc:"Calculus query, e.g. \
                 '{x | exists y. edge(x, y) and not edge(x, x)}'.")
  in
  let tables =
    Arg.(value & opt_all string [] & info [ "t"; "table" ] ~docv:"NAME=FILE"
           ~doc:"Bind a relation name to a CSV file (repeatable).")
  in
  let interpret =
    Arg.(value & flag & info [ "interpret" ]
           ~doc:"Use the naive active-domain interpreter instead of \
                 compiling to algebra (Codd's theorem).")
  in
  let show_plan =
    Arg.(value & flag & info [ "plan" ] ~doc:"Print the compiled algebra plan.")
  in
  Cmd.v
    (Cmd.info "calculus" ~version ~doc:"Evaluate a relational calculus query over CSV tables")
    Term.(const calculus_run $ text $ tables $ interpret $ show_plan)

(* --- design ------------------------------------------------------------------ *)

let design_run attrs fds =
  input_error_to_exit @@ fun () ->
  let universe = Dependencies.Attrs.of_string attrs in
  let fds = Dependencies.Fd.set_of_string fds in
  let scheme = { Dependencies.Normal_forms.name = "r"; attrs = universe; fds } in
  Printf.printf "scheme: %s\n"
    (Dependencies.Normal_forms.scheme_to_string scheme);
  let keys = Dependencies.Fd.candidate_keys ~universe fds in
  Printf.printf "candidate keys: %s\n"
    (String.concat ", " (List.map Dependencies.Attrs.to_string keys));
  Printf.printf "minimal cover: %s\n"
    (Dependencies.Fd.set_to_string (Dependencies.Fd.minimal_cover fds));
  Printf.printf "2NF: %b  3NF: %b  BCNF: %b\n"
    (Dependencies.Normal_forms.is_2nf scheme)
    (Dependencies.Normal_forms.is_3nf scheme)
    (Dependencies.Normal_forms.is_bcnf scheme);
  List.iter
    (fun v ->
      Printf.printf "  BCNF violation: %s (%s)\n"
        (Dependencies.Fd.to_string v.Dependencies.Normal_forms.fd)
        v.Dependencies.Normal_forms.reason)
    (Dependencies.Normal_forms.violations_bcnf scheme);
  let bcnf = Dependencies.Normal_forms.bcnf_decompose scheme in
  Printf.printf "BCNF decomposition (lossless %b, dep-preserving %b):\n"
    (Dependencies.Normal_forms.lossless scheme bcnf)
    (Dependencies.Normal_forms.dependency_preserving scheme bcnf);
  List.iter
    (fun s ->
      Printf.printf "  %s\n" (Dependencies.Normal_forms.scheme_to_string s))
    bcnf;
  let threenf = Dependencies.Normal_forms.synthesize_3nf scheme in
  Printf.printf "3NF synthesis (lossless %b, dep-preserving %b):\n"
    (Dependencies.Normal_forms.lossless scheme threenf)
    (Dependencies.Normal_forms.dependency_preserving scheme threenf);
  List.iter
    (fun s ->
      Printf.printf "  %s\n" (Dependencies.Normal_forms.scheme_to_string s))
    threenf;
  0

let design_cmd =
  let attrs =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ATTRS"
           ~doc:"Attributes, e.g. 'ABC' or 'city,street,zip'.")
  in
  let fds =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FDS"
           ~doc:"Functional dependencies, e.g. 'AB -> C; C -> A'.")
  in
  Cmd.v
    (Cmd.info "design" ~version ~doc:"Analyze and normalize a relation scheme")
    Term.(const design_run $ attrs $ fds)

(* --- schedule ------------------------------------------------------------------ *)

let schedule_run text =
  input_error_to_exit @@ fun () ->
  let s = Transactions.Schedule.of_string text in
  Printf.printf "schedule: %s\n" (Transactions.Schedule.to_string s);
  Printf.printf "well-formed: %b\n" (Transactions.Schedule.well_formed s);
  Printf.printf "conflict-serializable: %b\n"
    (Transactions.Serializability.is_conflict_serializable s);
  (match Transactions.Serializability.conflict_equivalent_serial_order s with
  | Some order ->
      Printf.printf "equivalent serial order: %s\n"
        (String.concat " < " (List.map string_of_int order))
  | None -> ());
  if List.length (Transactions.Schedule.txns s) <= 8 then
    Printf.printf "view-serializable: %b\n"
      (Transactions.Serializability.is_view_serializable s);
  Printf.printf "recoverable: %b\navoids cascading aborts: %b\nstrict: %b\n"
    (Transactions.Serializability.is_recoverable s)
    (Transactions.Serializability.avoids_cascading_aborts s)
    (Transactions.Serializability.is_strict s);
  0

let schedule_cmd =
  let text =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SCHEDULE"
           ~doc:"History, e.g. 'r1(x) w2(x) c1 c2'.")
  in
  Cmd.v
    (Cmd.info "schedule" ~version ~doc:"Analyze a transaction schedule")
    Term.(const schedule_run $ text)

(* --- sat ------------------------------------------------------------------------- *)

let sat_run file =
  input_error_to_exit @@ fun () ->
  let cnf = Sat.Cnf.of_dimacs (read_file file) in
  (match Sat.Dpll.solve cnf with
  | Sat.Dpll.Sat assignment ->
      print_endline "s SATISFIABLE";
      let lits =
        List.map (fun (v, b) -> if b then v else -v) assignment
        |> List.sort (fun a b -> Int.compare (abs a) (abs b))
      in
      Printf.printf "v %s 0\n" (String.concat " " (List.map string_of_int lits))
  | Sat.Dpll.Unsat -> print_endline "s UNSATISFIABLE");
  0

let sat_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"CNF in DIMACS format.")
  in
  Cmd.v (Cmd.info "sat" ~version ~doc:"Decide a DIMACS CNF with DPLL")
    Term.(const sat_run $ file)

(* --- db: the persistent storage engine --------------------------------------- *)

let crash_message path at =
  Printf.printf "simulated crash at: %s\n" at;
  Printf.printf
    "the database was left as the crash left it; run 'dbmeta db recover \
     %s' (or any other db command) to repair it\n"
    path;
  0

let dist_crash_message path shards at =
  Printf.printf "simulated crash at: %s\n" at;
  Printf.printf
    "the shards were left as the crash left them; run 'dbmeta db recover \
     %s --shards=%d' to resolve in-doubt transactions and repair them\n"
    path shards;
  0

let with_db ?crash_after ?faults ?(metrics = None) ?trace_file path f =
  let faults = Option.map Storage.Fault.spec_of_string faults in
  let registry = registry_of metrics in
  let trace = trace_of trace_file in
  let code =
    match
      Storage.Engine.open_db ?crash_after ?faults ~metrics:registry ~trace path
    with
    | exception Storage.Fault.Crash at -> crash_message path at
    | eng -> (
        match
          let code = f eng in
          Storage.Engine.close eng;
          code
        with
        | code ->
            if Storage.Engine.read_only eng then begin
              Printf.printf
                "engine degraded to read-only: %s; pending writes were \
                 dropped and will be resolved by restart recovery\n"
                (Option.value ~default:"unflushable wal"
                   (Storage.Engine.degraded_reason eng));
              1
            end
            else code
        | exception Storage.Fault.Crash at ->
            Storage.Engine.crash eng;
            crash_message path at
        | exception Storage.Engine.Read_only reason ->
            Storage.Engine.close eng;
            Printf.printf
              "engine degraded to read-only: %s; pending writes were \
               dropped and will be resolved by restart recovery\n"
              reason;
            1)
  in
  write_trace trace_file trace;
  dump_metrics metrics registry;
  code

(* [--verify-wal]: run the offline WL passes over the log as it sits on
   disk and fold any errors into the exit code — the dynamic layer
   closing the loop with `dbmeta lint wal`. *)
let wal_audit ?(label = "wal audit") path code =
  let report = Storage.Wal.report_file (Storage.Engine.wal_path path) in
  let diags = Analysis.Wal_lint.lint report in
  if diags = [] then begin
    Printf.printf "%s: clean (%d record(s), %d byte(s))\n" label
      (List.length report.Storage.Wal.records)
      report.Storage.Wal.total_bytes;
    code
  end
  else begin
    print_string (Analysis.Diagnostic.list_to_text diags);
    max code (Analysis.Diagnostic.exit_code diags)
  end

let report_repair eng =
  match Storage.Engine.last_repair eng with
  | Some { Storage.Engine.quarantined; replayed } ->
      Printf.printf
        "repair: quarantined %d corrupt page(s), rebuilt the item store \
         from %d logged write(s)\n"
        (List.length quarantined) replayed
  | None -> ()

let report_recovery eng =
  report_repair eng;
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
  with_db ?trace_file path (fun eng ->
      Printf.printf "created %s (%d pages, wal at %s)\n" path
        (Storage.Pager.page_count (Storage.Engine.pager eng))
        wal;
      0)

let db_load_run path tables crash_after faults metrics trace_file =
  input_error_to_exit @@ fun () ->
  let db = load_tables tables in
  with_db ?crash_after ?faults ~metrics ?trace_file path (fun eng ->
      let names =
        Relational.Database.fold
          (fun name rel acc ->
            Storage.Engine.save_table eng name rel;
            Printf.printf "loaded %s: %d tuples\n" name
              (Relational.Relation.cardinality rel);
            name :: acc)
          db []
      in
      (* refresh the planner's statistics for what was just loaded *)
      if names <> [] then
        ignore (Planner.Stats.analyze eng names : Planner.Stats.t);
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
  with_db ~metrics ?trace_file path (fun eng ->
      let expr = Relational.Query_parser.parse text in
      if no_plan then begin
        let db = Storage.Engine.database eng in
        let catalog = Relational.Algebra.catalog_of_database db in
        let expr =
          if optimize then
            Relational.Optimizer.optimize catalog
              (Relational.Optimizer.stats_of_database db)
              expr
          else expr
        in
        if optimize then
          Printf.printf "plan: %s\n" (Relational.Algebra.to_string expr);
        print_string
          (Relational.Relation.to_string (Relational.Eval.eval db expr));
        0
      end
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
  with_db ?crash_after ?faults ?trace_file path (fun eng ->
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
  with_db ?trace_file path (fun eng ->
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
  let raw = Storage.Wal.report_file (Storage.Engine.wal_path path) in
  with_db ?trace_file path (fun eng ->
      let pager = Storage.Engine.pager eng in
      Printf.printf "file: %s (format v1, %d pages of %d bytes)\n" path
        (Storage.Pager.page_count pager)
        Storage.Page.size;
      report_recovery eng;
      Printf.printf "wal: %d surviving record(s) before open%s\n"
        (List.length raw.Storage.Wal.records)
        (let torn = raw.Storage.Wal.total_bytes - raw.Storage.Wal.clean_bytes in
         if torn = 0 then ""
         else Printf.sprintf ", %d torn tail byte(s)" torn);
      Printf.printf "items: %d\n" (Storage.Engine.item_count eng);
      let tables = Storage.Engine.tables eng in
      Printf.printf "tables: %d\n" (List.length tables);
      List.iter
        (fun { Storage.Heap.name; schema; first; fences } ->
          Printf.printf "  %s(%s) @ page %d: %d tuples%s\n" name
            (String.concat ", "
               (List.map
                  (fun (a, ty) -> a ^ ":" ^ Relational.Value.ty_to_string ty)
                  (Relational.Schema.pairs schema)))
            first
            (Relational.Relation.cardinality (Storage.Engine.load_table eng name))
            (match fences with
            | Some { Storage.Heap.root; count } ->
                Printf.sprintf ", %d pages fenced @ page %d" count root
            | None -> ""))
        tables;
      let hits, misses =
        let s = Storage.Buffer_pool.stats (Storage.Engine.pool eng) in
        (s.Storage.Buffer_pool.hits, s.Storage.Buffer_pool.misses)
      in
      Printf.printf "buffer pool: %d/%d resident, %d hits, %d misses\n"
        (Storage.Buffer_pool.resident (Storage.Engine.pool eng))
        (Storage.Buffer_pool.capacity (Storage.Engine.pool eng))
        hits misses;
      (* a replica family beside this file means the db is one node of a
         replication group: report its role from the descriptor *)
      (match Replication.Repl_meta.load_group path with
      | None -> ()
      | Some g ->
          let module M = Replication.Repl_meta in
          let clean k =
            (Storage.Wal.report_file
               (Storage.Engine.wal_path (M.node_path path k)))
              .Storage.Wal.clean_bytes
          in
          let p = clean g.M.primary in
          let worst =
            List.fold_left
              (fun acc k ->
                if k = g.M.primary then acc
                else max acc (p - min p (clean k)))
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
  let shards =
    match shards with
    | Some n when n <= 0 ->
        invalid_arg (Printf.sprintf "--shards must be positive, got %d" n)
    | Some _ as n -> n
    | None ->
        let n = Distributed.Coordinator.discover path in
        if n > 0 then Some n else None
  in
  match shards with
  | None ->
      let code =
        with_db ~metrics ?trace_file path (fun eng ->
            report_recovery eng;
            Printf.printf "items: %d, tables: %d\n"
              (Storage.Engine.item_count eng)
              (List.length (Storage.Engine.table_names eng));
            0)
      in
      if verify_wal then wal_audit path code else code
  | Some n ->
      let registry = registry_of metrics in
      let trace = trace_of trace_file in
      let coord =
        Distributed.Coordinator.open_dist ~shards:n ~metrics:registry ~trace
          path
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
      let code =
        if verify_wal then
          List.fold_left
            (fun code k ->
              wal_audit
                ~label:(Printf.sprintf "shard %d wal audit" k)
                (Distributed.Coordinator.shard_path path k)
                code)
            0 (List.init n Fun.id)
        else 0
      in
      write_trace trace_file trace;
      dump_metrics metrics registry;
      code

(* [db exec] runs one scheduler, Storage.Executor, over one of three
   backends: an engine, a 2PC coordinator over N shards (--shards), or
   a WAL-shipping replication group (--replicas).  A target carries what
   only its backend knows: extra report counters and lines, how to
   close it, its crash hint and degraded line, its model check, and the
   WALs it leaves behind. *)
type exec_target = {
  backend : Storage.Executor.backend;
  close : unit -> unit;
  counters : Storage.Executor.stats -> string;
      (* ends the committed line; read as the run left the backend *)
  ticks : unit -> string;  (* ends the throughput line *)
  notes : unit -> string list;  (* lines after the throughput line *)
  crash_hint : string;
  degraded : unit -> string;
  divergence :
    unit -> ((string * int) list * (string * int) list) option;
  wals : (string * string) list;  (* audit label, database path *)
}

let engine_degraded eng =
  Printf.sprintf
    "engine degraded to read-only: %s; unresolved transactions are in \
     doubt and will be aborted by restart recovery"
    (Option.value ~default:"unflushable wal"
       (Storage.Engine.degraded_reason eng))

let local_target path ?faults ?crash_after ~metrics ~trace () =
  match Storage.Engine.open_db ?crash_after ?faults ~metrics ~trace path with
  | exception Storage.Fault.Crash at -> Error (crash_message path at)
  | eng ->
      Ok
        {
          backend = Storage.Executor.engine eng;
          close = (fun () -> Storage.Engine.close eng);
          counters =
            (fun _ ->
              Printf.sprintf "  repairs %d  io-retries %d"
                (Storage.Engine.repairs eng)
                (Storage.Engine.io_retries eng));
          ticks = (fun () -> "");
          notes = (fun () -> []);
          crash_hint =
            Printf.sprintf
              "run 'dbmeta db recover %s' (or any other db command) to \
               repair the database"
              path;
          degraded = (fun () -> engine_degraded eng);
          divergence = (fun () -> Storage.Executor.model_divergence ~path);
          wals = [ ("wal audit", path) ];
        }

let dist_target path n ?faults ?crash_after ~metrics ~trace () =
  if n <= 0 then
    invalid_arg (Printf.sprintf "--shards must be positive, got %d" n);
  let module C = Distributed.Coordinator in
  match C.open_dist ~shards:n ?faults ?crash_after ~metrics ~trace path with
  | exception Storage.Fault.Crash at -> Error (dist_crash_message path n at)
  | coord ->
      let completed, presumed = C.resolved coord in
      if completed + presumed > 0 then
        Printf.printf
          "resolution: %d in-doubt transaction(s) — %d completed, %d \
           presumed aborted\n"
          (completed + presumed) completed presumed;
      Ok
        {
          backend = C.backend coord;
          close = (fun () -> C.close coord);
          counters =
            (fun s ->
              Printf.sprintf "  commit-aborts %d"
                s.Storage.Executor.commit_aborts);
          ticks =
            (fun () -> Printf.sprintf ", %d net ticks" (C.net_ticks coord));
          notes =
            (fun () ->
              match List.length (C.stranded_txns coord) with
              | 0 -> []
              | k ->
                  [
                    Printf.sprintf
                      "stranded: %d decision(s) undelivered; their locks \
                       stay held and restart recovery will complete them"
                      k;
                  ]);
          crash_hint =
            Printf.sprintf
              "run 'dbmeta db recover %s --shards=%d' to resolve in-doubt \
               transactions and repair the shards"
              path n;
          degraded =
            (fun () ->
              "coordinator or shard degraded to read-only; unresolved \
               transactions are in doubt and will be settled by restart \
               recovery");
          divergence = (fun () -> C.model_divergence ~path);
          wals =
            List.init n (fun k ->
                (Printf.sprintf "shard %d wal audit" k, C.shard_path path k));
        }

let repl_target path n sync ?faults ?crash_after ~metrics ~trace () =
  if n <= 0 then
    invalid_arg (Printf.sprintf "--replicas must be positive, got %d" n);
  let module G = Replication.Group in
  match
    G.open_group ~replicas:n ~sync ?faults ?crash_after ~metrics ~trace path
  with
  | exception Storage.Fault.Crash at ->
      Printf.printf "simulated crash at: %s\n" at;
      Printf.printf
        "the group was left as the crash left it; run 'dbmeta db repl \
         status %s' to inspect it, 'dbmeta lint repl %s' to audit it, or \
         reopen with 'dbmeta db exec --replicas=%d %s' to heal the \
         replicas\n"
        path path n path;
      Error 0
  | g ->
      Printf.printf "replication: %d node(s), sync=%s, epoch %d\n"
        (G.node_count g)
        (Replication.Repl_meta.sync_mode_to_string (G.sync_mode g))
        (G.epoch g);
      Ok
        {
          backend = G.backend g;
          (* a deposed primary must not checkpoint or ship again *)
          close =
            (fun () -> if G.fenced g = None then G.close g else G.crash g);
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
          crash_hint =
            Printf.sprintf
              "run 'dbmeta db exec --replicas=%d %s' again to heal, or \
               'dbmeta db failover %s' to promote a replica"
              n path path;
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
  let registry = registry_of metrics in
  let trace = trace_of trace_file in
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
  let target =
    let metrics = registry in
    match (shards, replicas) with
    | Some _, Some _ ->
        invalid_arg "--shards and --replicas are mutually exclusive"
    | Some n, None -> dist_target path n ?faults ?crash_after ~metrics ~trace ()
    | None, Some n ->
        repl_target path n sync_mode ?faults ?crash_after ~metrics ~trace ()
    | None, None -> local_target path ?faults ?crash_after ~metrics ~trace ()
  in
  let code =
    match target with
    | Error code -> code
    | Ok t ->
        let module X = Storage.Executor in
        let config = { X.default_config with seed; lock_timeout = timeout } in
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
              Printf.printf "simulated crash at: %s (io %d)\n" site io_index;
              print_endline t.crash_hint;
              0
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
        if verify_wal then
          List.fold_left
            (fun code (label, db) -> wal_audit ~label db code)
            code t.wals
        else code
  in
  write_trace trace_file trace;
  dump_metrics metrics registry;
  code

let db_file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DB"
         ~doc:"Database file (its WAL lives alongside as DB.wal).")

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
  let tables =
    Arg.(value & opt_all string [] & info [ "t"; "table" ] ~docv:"NAME=FILE"
           ~doc:"Load a CSV file as a named table (repeatable).")
  in
  Cmd.v
    (Cmd.info "load" ~version ~doc:"Load CSV tables into the database")
    Term.(const db_load_run $ db_file_arg $ tables $ crash_after_arg $ faults_arg
          $ metrics_arg $ trace_arg)

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

let index_kind_arg =
  Arg.(value
       & opt
           (enum
              [ ("btree", Planner.Indexes.Btree); ("hash", Planner.Indexes.Hash) ])
           Planner.Indexes.Btree
       & info [ "kind" ] ~docv:"KIND"
           ~doc:"Index structure: $(b,btree) (point lookups, range and \
                 ordered scans) or $(b,hash) (point lookups only).")

let db_index_table_arg =
  Arg.(required & pos 1 (some string) None & info [] ~docv:"TABLE"
         ~doc:"The indexed table.")

let db_index_attr_arg =
  Arg.(required & pos 2 (some string) None & info [] ~docv:"COLUMN"
         ~doc:"The indexed column.")

let db_index_create_run path table attr kind trace_file =
  input_error_to_exit @@ fun () ->
  with_db ?trace_file path (fun eng ->
      let idx = Planner.Indexes.load eng in
      Planner.Indexes.create eng idx { Planner.Indexes.table; attr; kind };
      (* fresh statistics, so the cost model prices the new access path
         off current cardinalities *)
      ignore (Planner.Stats.analyze eng [ table ] : Planner.Stats.t);
      Printf.printf "created %s index on %s(%s)\n"
        (Planner.Indexes.kind_to_string kind)
        table attr;
      0)

let db_index_drop_run path table attr kind trace_file =
  input_error_to_exit @@ fun () ->
  with_db ?trace_file path (fun eng ->
      let idx = Planner.Indexes.load eng in
      Planner.Indexes.drop eng idx { Planner.Indexes.table; attr; kind };
      Printf.printf "dropped %s index on %s(%s)\n"
        (Planner.Indexes.kind_to_string kind)
        table attr;
      0)

let db_index_list_run path trace_file =
  input_error_to_exit @@ fun () ->
  with_db ?trace_file path (fun eng ->
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

let db_index_cmd =
  let create =
    Cmd.v
      (Cmd.info "create" ~version
         ~doc:"Register a secondary index and refresh the table's \
               statistics")
      Term.(const db_index_create_run $ db_file_arg $ db_index_table_arg
            $ db_index_attr_arg $ index_kind_arg $ trace_arg)
  in
  let drop =
    Cmd.v
      (Cmd.info "drop" ~version ~doc:"Remove a secondary index")
      Term.(const db_index_drop_run $ db_file_arg $ db_index_table_arg
            $ db_index_attr_arg $ index_kind_arg $ trace_arg)
  in
  let list =
    Cmd.v
      (Cmd.info "list" ~version ~doc:"List the registered indexes")
      Term.(const db_index_list_run $ db_file_arg $ trace_arg)
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
  let registry = registry_of metrics in
  let trace = trace_of trace_file in
  let g = Replication.Group.open_group ~metrics:registry ~trace path in
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
  dump_metrics metrics registry;
  write_trace trace_file trace;
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
  let clean k =
    (Storage.Wal.report_file
       (Storage.Engine.wal_path (M.node_path path k)))
      .Storage.Wal.clean_bytes
  in
  let primary_clean = clean primary_id in
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
      let c = clean k in
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

let db_cmd =
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

(* --- lint ------------------------------------------------------------------------- *)

let format_arg =
  Arg.(value
       & opt
           (enum
              [ ("text", Analysis.Pass.Text); ("json", Analysis.Pass.Json) ])
           Analysis.Pass.Text
       & info [ "format" ] ~docv:"FORMAT"
           ~doc:"Output format: text or json.")

(* Every lint subcommand parses its artifact, then goes through this one
   driver — rendering and exit-code policy live in Analysis.Pass, so
   text/JSON/exit behaviour cannot drift between subcommands. *)
let drive format passes input =
  let output, code = Analysis.Pass.drive ~format passes input in
  print_string output;
  code

let lint_datalog_run file query format =
  input_error_to_exit @@ fun () ->
  let program = Datalog.Parser.parse_program (read_file file) in
  let query = Option.map Datalog.Parser.parse_query query in
  drive format
    (Analysis.Datalog_lint.passes @ Analysis.Semantic_lint.datalog_passes)
    { Analysis.Datalog_lint.program; query }

let lint_datalog_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Datalog program to analyze.")
  in
  let query =
    Arg.(value & opt (some string) None & info [ "q"; "query" ] ~docv:"QUERY"
           ~doc:"Query atom; enables dead-rule (DL008) analysis and \
                 sharpens unused-predicate (DL005) reporting.")
  in
  Cmd.v
    (Cmd.info "datalog" ~version
       ~doc:"Lint a Datalog program (codes DL001-DL008, SQ006-SQ008)")
    Term.(const lint_datalog_run $ file $ query $ format_arg)

(* name=a:int,b:string — a schema for a relation that has no CSV backing *)
let parse_schema_spec spec =
  let fail () =
    invalid_arg
      (Printf.sprintf
         "--schema expects name=attr:type,... with types int, string, \
          float, bool; got %S"
         spec)
  in
  match String.index_opt spec '=' with
  | None -> fail ()
  | Some i ->
      let name = String.sub spec 0 i in
      let body = String.sub spec (i + 1) (String.length spec - i - 1) in
      let pairs =
        List.map
          (fun field ->
            match String.index_opt field ':' with
            | None -> fail ()
            | Some j -> (
                let attr = String.sub field 0 j in
                let ty =
                  String.sub field (j + 1) (String.length field - j - 1)
                in
                match Relational.Value.ty_of_string ty with
                | Some ty when attr <> "" -> (attr, ty)
                | _ -> fail ()))
          (String.split_on_char ',' body |> List.filter (fun f -> f <> ""))
      in
      if name = "" || pairs = [] then fail ();
      (name, Relational.Schema.make pairs)

let lint_query_run text file tables schemas fd_specs format =
  input_error_to_exit @@ fun () ->
  let text =
    match (text, file) with
    | Some t, None -> t
    | None, Some f -> String.trim (read_file f)
    | Some _, Some _ ->
        invalid_arg "give either a QUERY argument or --file, not both"
    | None, None -> invalid_arg "expected a QUERY argument or --file"
  in
  let db = load_tables tables in
  let inline = List.map parse_schema_spec schemas in
  let catalog name =
    match List.assoc_opt name inline with
    | Some s -> Some s
    | None -> Analysis.Relational_lint.catalog_of_database db name
  in
  let fds =
    List.map
      (fun spec ->
        match Analysis.Semantic_lint.fd_of_spec ~catalog spec with
        | Ok fd -> fd
        | Error msg -> invalid_arg msg)
      fd_specs
  in
  let plan = Relational.Query_parser.parse text in
  (* the RA suite and the semantic SQ suite share one drive: the RA
     passes just ignore the dependencies *)
  let ra_passes =
    List.map
      (Analysis.Pass.adapt
         (fun { Analysis.Semantic_lint.catalog; plan; _ } ->
           { Analysis.Relational_lint.catalog; plan }))
      Analysis.Relational_lint.passes
  in
  drive format
    (ra_passes @ Analysis.Semantic_lint.passes)
    { Analysis.Semantic_lint.catalog; fds; plan }

let lint_query_cmd =
  let text =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"QUERY"
           ~doc:"Algebra expression to analyze.")
  in
  let file =
    Arg.(value & opt (some file) None & info [ "f"; "file" ] ~docv:"FILE"
           ~doc:"Read the query from $(docv) instead of the command line \
                 (one expression, whitespace and newlines allowed).")
  in
  let tables =
    Arg.(value & opt_all string [] & info [ "t"; "table" ] ~docv:"NAME=FILE"
           ~doc:"Bind a relation name to a CSV file (repeatable).")
  in
  let schemas =
    Arg.(value & opt_all string [] & info [ "s"; "schema" ] ~docv:"NAME=SPEC"
           ~doc:"Declare a relation schema inline, e.g. \
                 'edge=src:int,dst:int' (repeatable; no data needed).")
  in
  let fds =
    Arg.(value & opt_all string [] & info [ "fd" ] ~docv:"SPEC"
           ~doc:"Declare a functional dependency for the chase-based \
                 passes, e.g. 'students: sid -> sname year' (repeatable; \
                 attributes must exist in the relation's schema).")
  in
  Cmd.v
    (Cmd.info "query" ~version
       ~doc:"Lint a relational algebra plan (codes RA001-RA006, \
             SQ001-SQ005)")
    Term.(const lint_query_run $ text $ file $ tables $ schemas $ fds
          $ format_arg)

(* --- lint plan: the physical-plan suite --------------------------------------- *)

(* The plan is compiled AND executed before linting: PL003 (estimate
   divergence) needs the actual row counts only a run can fill in.  The
   other passes would work on the unexecuted plan, but one uniform
   artifact keeps the subcommand simple. *)
let lint_plan_run path text no_optimize format trace_file =
  input_error_to_exit @@ fun () ->
  with_db ?trace_file path (fun eng ->
      let expr = Relational.Query_parser.parse text in
      let config =
        { Planner.Plan.default_config with optimize = not no_optimize }
      in
      let ctx = Planner.Plan.make ~config eng in
      let plan = Planner.Plan.plan ctx expr in
      ignore (Planner.Exec.run ctx plan : Relational.Relation.t);
      drive format Analysis.Plan_lint.passes
        {
          Analysis.Plan_lint.plan;
          indexes = Planner.Plan.indexes ctx;
        })

let lint_plan_cmd =
  let text =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY"
           ~doc:"Algebra expression to plan, execute, and analyze against \
                 the stored tables.")
  in
  let no_optimize =
    Arg.(value & flag & info [ "no-optimize" ]
           ~doc:"Lint the query as written, skipping the logical rewrite \
                 pipeline — unpushed selections over indexed tables then \
                 surface as PL001.")
  in
  Cmd.v
    (Cmd.info "plan" ~version
       ~doc:"Lint a physical query plan against a database (codes \
             PL001-PL004)")
    Term.(const lint_plan_run $ db_file_arg $ text $ no_optimize $ format_arg
          $ trace_arg)

let lint_schedule_run text file format =
  input_error_to_exit @@ fun () ->
  let text =
    match (text, file) with
    | Some t, None -> t
    | None, Some f -> String.trim (read_file f)
    | Some _, Some _ ->
        invalid_arg "give either a SCHEDULE argument or --file, not both"
    | None, None -> invalid_arg "expected a SCHEDULE argument or --file"
  in
  drive format Analysis.Concurrency_lint.schedule_passes
    (Transactions.Locked_schedule.of_string text)

let lint_schedule_cmd =
  let text =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"SCHEDULE"
           ~doc:"History, e.g. 'r1(x) w2(x) c1 c2'; lock-annotated \
                 histories ('sl1(x) r1(x) u1(x) ...') additionally get \
                 the lock-discipline and concurrency-prediction passes.")
  in
  let file =
    Arg.(value & opt (some file) None & info [ "f"; "file" ] ~docv:"FILE"
           ~doc:"Read the schedule from $(docv) instead of the command \
                 line (whitespace-separated tokens, newlines allowed).")
  in
  Cmd.v
    (Cmd.info "schedule" ~version
       ~doc:"Lint a transaction schedule (codes TX001-TX010, CC001-CC006)")
    Term.(const lint_schedule_run $ text $ file $ format_arg)

(* Register every runtime metric name on a fresh registry by exercising
   each instrumented subsystem once.  Registration happens at component
   construction (and, for the per-site fault counters, at first firing),
   so a tiny deterministic workload covers the whole name set. *)
let registered_metric_names () =
  let registry = Obs.Registry.create () in
  (* fault.*: per-site counters register lazily when a fault fires *)
  let fault = Storage.Fault.create () in
  Storage.Fault.set_metrics fault registry;
  let rule = [ { Storage.Fault.scope = None; prob = 1.0 } ] in
  Storage.Fault.configure fault
    { Storage.Fault.no_faults with torn = rule; flip = rule; eio = rule };
  ignore (Storage.Fault.torn_write fault ~at:"wal flush" : bool);
  ignore (Storage.Fault.bit_flip fault ~at:"page 1 write" ~len:8 : int option);
  ignore (Storage.Fault.transient fault ~at:"pager fsync" : bool);
  Storage.Fault.arm fault 0;
  (try Storage.Fault.io fault ~at:"wal flush" ~on_crash:(fun () -> ())
   with Storage.Fault.Crash _ -> ());
  (* pager/pool/wal/engine register at open, 2pc.* and repl.* when the
     coordinator and the group open, lock.*/exec.* when the scheduler
     runs: drive the same tiny workload through each backend *)
  let dir = Filename.temp_dir "dbmeta-lint-metrics" "" in
  let base name = Filename.concat dir name in
  let programs =
    Transactions.Workload.generate (Support.Rng.create 0)
      {
        Transactions.Workload.txns = 2;
        ops_per_txn = 2;
        items = 1;
        skew = 0.;
        write_ratio = 1.0;
      }
  in
  let drive backend =
    let config =
      { Storage.Executor.default_config with lock_timeout = Some 8 }
    in
    ignore
      (Storage.Executor.run ~config backend programs : Storage.Executor.stats)
  in
  let eng = Storage.Engine.open_db ~metrics:registry (base "local.db") in
  drive (Storage.Executor.engine eng);
  (* plan.*: the planner registers its counters at context creation *)
  ignore (Planner.Plan.make eng : Planner.Plan.ctx);
  Storage.Engine.close eng;
  let coord =
    Distributed.Coordinator.open_dist ~shards:1 ~metrics:registry
      (base "shard.db")
  in
  drive (Distributed.Coordinator.backend coord);
  Distributed.Coordinator.close coord;
  let grp =
    Replication.Group.open_group ~replicas:1 ~metrics:registry
      (base "group.db")
  in
  drive (Replication.Group.backend grp);
  Replication.Group.close grp;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  (* datalog.*: the semi-naive evaluator registers its instruments *)
  let prog =
    Datalog.Parser.parse_program
      "e(1, 2). e(2, 3). p(X, Y) :- e(X, Y). p(X, Y) :- p(X, Z), e(Z, Y)."
  in
  ignore
    (Datalog.Seminaive.eval_with_stats ~metrics:registry prog
       Datalog.Facts.empty);
  Obs.Registry.names registry

let lint_metrics_run catalogue format =
  input_error_to_exit @@ fun () ->
  let registered = registered_metric_names () in
  drive format Analysis.Obs_lint.passes
    { Analysis.Obs_lint.registered; catalogue_text = read_file catalogue }

let lint_metrics_cmd =
  let catalogue =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"CATALOGUE"
           ~doc:"The metric catalogue to check, normally \
                 docs/OBSERVABILITY.md.")
  in
  Cmd.v
    (Cmd.info "metrics" ~version
       ~doc:"Check the runtime metric registry against the documented \
             catalogue (codes OB001-OB002)")
    Term.(const lint_metrics_run $ catalogue $ format_arg)

let lint_wal_run file format =
  input_error_to_exit @@ fun () ->
  drive format Analysis.Wal_lint.passes (Storage.Wal.report_file file)

let lint_wal_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"WAL"
           ~doc:"Binary write-ahead log to verify, normally DB.wal.  The \
                 file is opened read-only — a survivor log left by a \
                 crashed process is inspected as-is, never repaired.")
  in
  Cmd.v
    (Cmd.info "wal" ~version
       ~doc:"Verify a binary write-ahead log offline (codes WL001-WL010)")
    Term.(const lint_wal_run $ file $ format_arg)

let lint_commit_run base format =
  input_error_to_exit @@ fun () ->
  if Distributed.Coordinator.discover base = 0 then
    invalid_arg
      (Printf.sprintf "no shard files for %S (expected %s, %s, ...)" base
         (Distributed.Coordinator.shard_path base 0)
         (Distributed.Coordinator.shard_path base 1));
  drive format Analysis.Commit_lint.passes (Analysis.Commit_lint.of_base base)

let lint_commit_cmd =
  let base =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BASE"
           ~doc:"Sharded database base path: the coordinator log at \
                 BASE.2pc and every shard log BASE.shardK.wal are scanned \
                 read-only — the survivor files of a crashed run are \
                 inspected as-is, never repaired.")
  in
  Cmd.v
    (Cmd.info "commit" ~version
       ~doc:"Verify a two-phase-commit coordinator log against its shard \
             WALs (codes 2C001-2C006)")
    Term.(const lint_commit_run $ base $ format_arg)

let lint_repl_run base format =
  input_error_to_exit @@ fun () ->
  if
    Replication.Repl_meta.load_group base = None
    && Replication.Repl_meta.discover base < 2
  then
    invalid_arg
      (Printf.sprintf
         "no replication files for %S (expected a descriptor at %s or \
          replica files %s, ...)"
         base
         (Replication.Repl_meta.group_path base)
         (Replication.Repl_meta.node_path base 1));
  drive format Analysis.Replication_lint.passes
    (Analysis.Replication_lint.of_base base)

let lint_repl_cmd =
  let base =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BASE"
           ~doc:"Replication group base path: the descriptor at \
                 BASE.repl, the ack journal BASE.acks, and every node's \
                 WAL and epoch stamp are scanned read-only — the \
                 survivor files of a crashed or failed-over group are \
                 inspected as-is, never repaired.")
  in
  Cmd.v
    (Cmd.info "repl" ~version
       ~doc:"Verify a replication group's cross-log agreement: diverged \
             replicas, stale-epoch writes, acked-but-lost commits, and \
             snapshot/log-tail gaps (codes RP001-RP004)")
    Term.(const lint_repl_run $ base $ format_arg)

let lint_cmd =
  let doc =
    "Static analysis over Datalog programs, algebra plans, transaction \
     schedules, write-ahead logs, commit and replication protocols, and \
     the metric catalogue"
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the relevant pass suite and prints severity-graded \
         diagnostics (error, warning, info) with stable codes.  Every \
         subcommand ($(b,datalog), $(b,query), $(b,plan), $(b,schedule), \
         $(b,wal), $(b,commit), $(b,metrics)) goes through the same driver \
         and exit-code policy: exits 0 when no errors were found, 1 when \
         at least one error-severity diagnostic was reported, and 2 when \
         the input does not parse.";
    ]
  in
  Cmd.group
    (Cmd.info "lint" ~version ~doc ~man)
    [
      lint_datalog_cmd; lint_query_cmd; lint_plan_cmd; lint_schedule_cmd;
      lint_wal_cmd; lint_commit_cmd; lint_repl_cmd; lint_metrics_cmd;
    ]

(* --- main ------------------------------------------------------------------------- *)

let main_cmd =
  let doc = "database metatheory workbench (PODS '95 reproduction)" in
  let info = Cmd.info "dbmeta" ~version ~doc in
  Cmd.group info
    [
      datalog_cmd; query_cmd; calculus_cmd; design_cmd; schedule_cmd; sat_cmd;
      db_cmd; lint_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
