(* The evaluators: Datalog, the relational algebra and calculus over CSV
   tables, dependency theory, schedule analysis and DPLL. *)

open Cmdliner
open Cli

(* --- datalog run ----------------------------------------------------------- *)

let datalog_run file query engine explain metrics =
  input_error_to_exit @@ fun () ->
  let program = Datalog.Parser.parse_program (Support.Io.read_file file) in
  Datalog.Checks.check_safety program;
  let edb = Datalog.Facts.empty in
  observed ?metrics @@ fun registry _ ->
  (* the datalog.* instruments live in the semi-naive evaluator; --metrics
     therefore reports empty counters under --engine=naive *)
  let seminaive prog edb =
    fst (Datalog.Seminaive.eval_with_stats ~metrics:registry prog edb)
  in
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
                   (Array.to_list (Array.map Relational.Value.to_literal tup))))
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
              print_string
                (Datalog.Provenance.explain store q.Datalog.Ast.pred tup)
          | None -> ())
        answers;
      0

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
  eval_logical db (Relational.Query_parser.parse text) ~optimize

let query_cmd =
  let text =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY"
           ~doc:"Algebra expression, e.g. \
                 'project[sname](select[grade >= 85](students join enrolled))'.")
  in
  let optimize =
    Arg.(value & flag & info [ "O"; "optimize" ]
           ~doc:"Run the optimizer and print the chosen plan.")
  in
  Cmd.v
    (Cmd.info "query" ~version ~doc:"Evaluate a relational algebra query over CSV tables")
    Term.(const query_run $ text $ tables_arg $ optimize)

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
    Term.(const calculus_run $ text $ tables_arg $ interpret $ show_plan)

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
  let cnf = Sat.Cnf.of_dimacs (Support.Io.read_file file) in
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

let cmds =
  [ datalog_cmd; query_cmd; calculus_cmd; design_cmd; schedule_cmd; sat_cmd ]
