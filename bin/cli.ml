(* What every dbmeta command family shares: input-error handling, the
   arguments several families take, one wrapper for --metrics/--trace,
   the database open, and the one crash hint and degraded line each
   backend prints. *)

open Cmdliner

let version = "1.9.0"

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

let tables_arg =
  Arg.(value & opt_all string [] & info [ "t"; "table" ] ~docv:"NAME=FILE"
         ~doc:"Bind a relation name to a CSV file (repeatable). The CSV \
               header carries the schema as name:type pairs.")

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

(* The logical evaluator over a materialized database: [query] over
   CSV tables, and [db query --no-plan] over the stored ones. *)
let eval_logical db expr ~optimize =
  let expr =
    if optimize then
      Relational.Optimizer.optimize
        (Relational.Algebra.catalog_of_database db)
        (Relational.Optimizer.stats_of_database db)
        expr
    else expr
  in
  if optimize then
    Printf.printf "plan: %s\n" (Relational.Algebra.to_string expr);
  print_string (Relational.Relation.to_string (Relational.Eval.eval db expr));
  0

let db_file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DB"
         ~doc:"Database file (its WAL lives alongside as DB.wal).")

(* --- observability plumbing ----------------------------------------------- *)

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

(* [--trace=FILE] records spans while the command runs and writes them
   afterwards as a Chrome trace, reporting the count on stderr. *)
let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Record spans (restart recovery, checkpoints, WAL flushes, \
               commits and aborts, and under $(b,db exec) each \
               transaction incarnation per executor slot) and write them \
               as Chrome trace_event JSON to $(docv) — open it in \
               about:tracing or ui.perfetto.dev.")

(* Run [f registry trace] with a live registry, whose counters are the
   only counts the command can print, and a live recorder under
   [--trace] (a no-op otherwise), then report on stderr: the trace line
   first, then, under [--metrics], the registry. *)
let observed ?metrics ?trace_file f =
  let registry = Obs.Registry.create () in
  let trace =
    if trace_file = None then Obs.Trace.noop else Obs.Trace.create ()
  in
  let code = f registry trace in
  Option.iter
    (fun file ->
      let oc = open_out file in
      output_string oc (Obs.Trace.to_chrome trace);
      close_out oc;
      Printf.eprintf "trace: %d span(s) written to %s (%d dropped)\n"
        (List.length (Obs.Trace.events trace))
        file (Obs.Trace.dropped trace))
    trace_file;
  Option.iter
    (fun fmt ->
      prerr_string
        (match fmt with
        | `Text -> Obs.Registry.to_text registry
        | `Json -> Obs.Registry.to_json registry))
    metrics;
  code

(* A counter of the registry [observed] built, by name; 0 before its
   component registered it. *)
let count registry name =
  Option.value ~default:0 (Obs.Registry.counter_value registry name)

(* --- crashed and degraded backends ---------------------------------------- *)

let crashed hint at =
  Printf.printf "simulated crash at: %s\n%s\n" at hint;
  0

let local_hint path =
  Printf.sprintf
    "the database was left as the crash left it; run 'dbmeta db recover %s' \
     (or any other db command) to repair it"
    path

let sharded_hint path n =
  Printf.sprintf
    "run 'dbmeta db recover %s --shards=%d' to resolve in-doubt \
     transactions and repair the shards"
    path n

(* [db failover] needs a group descriptor or replica files; a crash
   before either was written leaves only the rerun *)
let replicated_hint path n =
  let rerun =
    Printf.sprintf "run 'dbmeta db exec --replicas=%d %s' again to heal" n path
  in
  if Replication.Repl_meta.discover path >= 2 then
    Printf.sprintf "%s, or 'dbmeta db failover %s' to promote a replica" rerun
      path
  else rerun

let engine_degraded eng =
  Printf.sprintf
    "engine degraded to read-only: %s; unresolved transactions are in \
     doubt and will be aborted by restart recovery"
    (Option.value ~default:"unflushable wal"
       (Storage.Engine.degraded_reason eng))

(* Open the database at [path], run [f] on it and close it.  Only the
   commands that write may create a database; the others refuse a path
   that holds neither a database nor its log. *)
let with_db ?(create = false) ?crash_after ?faults ?metrics ?trace_file path
    f =
  if
    not
      (create || Sys.file_exists path
      || Sys.file_exists (Storage.Engine.wal_path path))
  then invalid_arg (Printf.sprintf "no database at %s" path);
  let faults = Option.map Storage.Fault.spec_of_string faults in
  observed ?metrics ?trace_file @@ fun metrics trace ->
  match Storage.Engine.open_db ?crash_after ?faults ~metrics ~trace path with
  | exception Storage.Fault.Crash at -> crashed (local_hint path) at
  | eng -> (
      match
        (* a write that found the WAL unflushable raises after degrading
           the engine; the close then abandons it, as a crash would *)
        let code = try f eng with Storage.Engine.Read_only _ -> 1 in
        Storage.Engine.close eng;
        code
      with
      | exception Storage.Fault.Crash at ->
          Storage.Engine.crash eng;
          crashed (local_hint path) at
      | _ when Storage.Engine.read_only eng ->
          print_endline (engine_degraded eng);
          1
      | code -> code)

(* --- inspecting a replication node ------------------------------------------ *)

(* What an inspecting command learns of a database's log before the
   open, from one header walk of the file: how many frames survive, its
   clean and whole lengths, and whether restart on it would write.  It
   would not when the log is clean to its end and idle (empty, or
   ending in a checkpoint with no loser open) by the open's own rule,
   Recovery.note over the same frames: the open then writes nothing. *)
type log_facts = { frames : int; clean : int; total : int; restart_idle : bool }

let log_facts path =
  let tally = Storage.Recovery.tally () in
  let frames, clean, total =
    Storage.Wal.walk_file (Storage.Engine.wal_path path) ~init:0
      ~f:(fun n lsn kind txn ->
        Storage.Recovery.note tally lsn kind txn;
        n + 1)
  in
  let restart_idle =
    clean = total && (Storage.Recovery.analysis tally).Storage.Recovery.idle
  in
  { frames; clean; total; restart_idle }

(* The group base and node id of a replication node's file: node 0 is
   the base itself, node K > 0 lives at BASE.rK. *)
let node_of path =
  let module M = Replication.Repl_meta in
  let base = Filename.remove_extension path in
  match Scanf.sscanf_opt (Filename.extension path) ".r%u%!" Fun.id with
  | Some k
    when k > 0
         && M.node_path base k = path
         && not (Sys.file_exists (M.group_path path)) ->
      (base, k)
  | _ -> (path, 0)

(* An inspecting command (db status|get|query|index list, lint plan)
   must leave a replication node's files as they are: a replica whose
   log gained a byte of its own no longer matches its primary's.  A
   clean open writes nothing; a node whose open has work, such as a
   replica a crash left mid-stream or one whose item store the open
   would rebuild, is refused before it is opened.  [facts] are the
   node's [log_facts] when the caller already holds them. *)
let inspect_db ?facts ?metrics ?trace_file path f =
  let module M = Replication.Repl_meta in
  (if Sys.file_exists (M.epoch_path path) then
     let base, k = node_of path in
     let primary =
       match M.load_group base with Some g -> g.M.primary | None -> 0
     in
     let facts = match facts with Some f -> f | None -> log_facts path in
     let refuse work =
       invalid_arg
         (Printf.sprintf
            "%s is replica node %d of the group at %s, and opening it would \
             %s, which writes to it; heal the group with 'dbmeta db exec \
             --replicas=%d %s' or promote a node with 'dbmeta db failover \
             %s' first"
            path k base work
            (max 1 (M.discover base - 1))
            base base)
     in
     if k <> primary then
       if not facts.restart_idle then refuse "run restart recovery"
       else if Storage.Engine.repair_needed path ~horizon:facts.clean then
         refuse "rebuild its item store");
  with_db ?metrics ?trace_file path f
