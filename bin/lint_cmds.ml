(* [lint]: the static-analysis suites, one subcommand per artifact. *)

open Cmdliner
open Cli

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

(* An artifact given on the command line or read with --file, never
   both; forcing it inside the command reports a bad pair as an input
   error. *)
let text_or_file ~docv ~doc ~file_doc =
  let text = Arg.(value & pos 0 (some string) None & info [] ~docv ~doc) in
  let file =
    Arg.(value & opt (some file) None & info [ "f"; "file" ] ~docv:"FILE"
           ~doc:file_doc)
  in
  let pick text file =
    lazy
      (match (text, file) with
      | Some t, None -> t
      | None, Some f -> String.trim (Support.Io.read_file f)
      | Some _, Some _ ->
          invalid_arg
            (Printf.sprintf "give either a %s argument or --file, not both"
               docv)
      | None, None ->
          invalid_arg (Printf.sprintf "expected a %s argument or --file" docv))
  in
  Term.(const pick $ text $ file)

let lint_datalog_run file query format =
  input_error_to_exit @@ fun () ->
  let program = Datalog.Parser.parse_program (Support.Io.read_file file) in
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

let lint_query_run text tables schemas fd_specs format =
  input_error_to_exit @@ fun () ->
  let text = Lazy.force text in
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
    text_or_file ~docv:"QUERY" ~doc:"Algebra expression to analyze."
      ~file_doc:"Read the query from $(docv) instead of the command line \
                 (one expression, whitespace and newlines allowed)."
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
    Term.(const lint_query_run $ text $ tables_arg $ schemas $ fds
          $ format_arg)

(* --- lint plan: the physical-plan suite --------------------------------------- *)

(* The plan is compiled AND executed before linting: PL003 (estimate
   divergence) needs the actual row counts only a run can fill in.  The
   other passes would work on the unexecuted plan, but one uniform
   artifact keeps the subcommand simple. *)
let lint_plan_run path text no_optimize format trace_file =
  input_error_to_exit @@ fun () ->
  inspect_db ?trace_file path (fun eng ->
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

let lint_schedule_run text format =
  input_error_to_exit @@ fun () ->
  let text = Lazy.force text in
  drive format Analysis.Concurrency_lint.schedule_passes
    (Transactions.Locked_schedule.of_string text)

let lint_schedule_cmd =
  let text =
    text_or_file ~docv:"SCHEDULE"
      ~doc:"History, e.g. 'r1(x) w2(x) c1 c2'; lock-annotated histories \
            ('sl1(x) r1(x) u1(x) ...') additionally get the \
            lock-discipline and concurrency-prediction passes."
      ~file_doc:"Read the schedule from $(docv) instead of the command \
                 line (whitespace-separated tokens, newlines allowed)."
  in
  Cmd.v
    (Cmd.info "schedule" ~version
       ~doc:"Lint a transaction schedule (codes TX001-TX010, CC001-CC006)")
    Term.(const lint_schedule_run $ text $ format_arg)

let lint_metrics_run catalogue format =
  input_error_to_exit @@ fun () ->
  drive format Analysis.Obs_lint.passes
    {
      Analysis.Obs_lint.declared = Obs.Registry.rows Obs.Registry.declared;
      catalogue_text = Support.Io.read_file catalogue;
    }

let lint_metrics_cmd =
  let catalogue =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"CATALOGUE"
           ~doc:"The metric catalogue to check, normally \
                 docs/OBSERVABILITY.md.")
  in
  Cmd.v
    (Cmd.info "metrics" ~version
       ~doc:"Check the declared metrics against the documented \
             catalogue's rows (codes OB001-OB003)")
    Term.(const lint_metrics_run $ catalogue $ format_arg)

let lint_wal_run file format =
  input_error_to_exit @@ fun () ->
  drive format Analysis.Wal_lint.passes (Analysis.Wal_lint.input_of_file file)

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

let cmd =
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
