(* Tests for the physical planner: statistics collection and
   persistence, the secondary-index catalog, access-path selection,
   EXPLAIN rendering, the Volcano executor against Eval.eval (fixed
   cases and the QCheck equivalence property, with and without
   indexes), join-algorithm forcing, and sort spill. *)

module R = Relational
module A = R.Algebra
open R.Value
open Fixtures

let tmp_counter = ref 0

let fresh_path () =
  incr tmp_counter;
  let dir = Filename.get_temp_dir_name () in
  let path =
    Filename.concat dir
      (Printf.sprintf "dbmeta_planner_%d_%d.db" (Unix.getpid ()) !tmp_counter)
  in
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; Storage.Engine.wal_path path ];
  path

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; Storage.Engine.wal_path path ]

(* Open a fresh engine, save the university tables, run [f]. *)
let with_university ?metrics f =
  let path = fresh_path () in
  let eng = Storage.Engine.open_db ?metrics path in
  Storage.Engine.save_table eng "students" students;
  Storage.Engine.save_table eng "courses" courses;
  Storage.Engine.save_table eng "enrolled" enrolled;
  ignore
    (Planner.Stats.analyze eng [ "students"; "courses"; "enrolled" ]
      : Planner.Stats.t);
  Fun.protect
    ~finally:(fun () ->
      (* tests that exercise reopen persistence close [eng] themselves *)
      (try Storage.Engine.close eng with _ -> ());
      cleanup path)
    (fun () -> f path eng)

let check_rel = Alcotest.check relation_testable

(* --- statistics ---------------------------------------------------------- *)

let test_stats_collect_and_persist () =
  with_university (fun path eng ->
      let st = Planner.Stats.load eng in
      (match Planner.Stats.find st "students" with
      | None -> Alcotest.fail "no stats for students"
      | Some tb ->
          Alcotest.(check int) "rows" 5 tb.Planner.Stats.rows;
          Alcotest.(check bool) "pages > 0" true (tb.Planner.Stats.pages > 0);
          Alcotest.(check (option int)) "sid distinct" (Some 5)
            (Planner.Stats.distinct tb "sid");
          Alcotest.(check (option int)) "year distinct" (Some 3)
            (Planner.Stats.distinct tb "year"));
      (* persists across a close/reopen *)
      Storage.Engine.close eng;
      let eng2 = Storage.Engine.open_db path in
      Fun.protect
        ~finally:(fun () -> Storage.Engine.crash eng2)
        (fun () ->
          let st2 = Planner.Stats.load eng2 in
          match Planner.Stats.find st2 "enrolled" with
          | Some tb ->
              Alcotest.(check int) "reloaded rows"
                (R.Relation.cardinality enrolled)
                tb.Planner.Stats.rows
          | None -> Alcotest.fail "stats lost across reopen"))

let test_reserved_tables_hidden () =
  with_university (fun _path eng ->
      let names = Storage.Engine.table_names eng in
      Alcotest.(check bool) "no __stats in names" false
        (List.mem "__stats" names);
      Alcotest.(check (list string)) "public tables"
        [ "students"; "courses"; "enrolled" ]
        names;
      (* but load_table still resolves the reserved name *)
      Alcotest.(check bool) "reserved loadable" true
        (R.Relation.cardinality
           (Storage.Engine.load_table eng Planner.Stats.stats_table)
        > 0))

(* --- the index catalog ---------------------------------------------------- *)

let test_index_catalog_roundtrip () =
  with_university (fun path eng ->
      let idx = Planner.Indexes.load eng in
      Planner.Indexes.create eng idx
        { Planner.Indexes.table = "students"; attr = "sid"; kind = Btree };
      Planner.Indexes.create eng idx
        { Planner.Indexes.table = "enrolled"; attr = "grade"; kind = Hash };
      (* duplicate and bogus definitions are input errors *)
      Alcotest.(check bool) "duplicate raises" true
        (match
           Planner.Indexes.create eng idx
             { Planner.Indexes.table = "students"; attr = "sid"; kind = Btree }
         with
        | () -> false
        | exception Planner.Indexes.Index_error _ -> true);
      Alcotest.(check bool) "unknown column raises" true
        (match
           Planner.Indexes.create eng idx
             { Planner.Indexes.table = "students"; attr = "nope"; kind = Hash }
         with
        | () -> false
        | exception Planner.Indexes.Index_error _ -> true);
      Storage.Engine.close eng;
      let eng2 = Storage.Engine.open_db path in
      Fun.protect
        ~finally:(fun () -> Storage.Engine.crash eng2)
        (fun () ->
          let idx2 = Planner.Indexes.load eng2 in
          Alcotest.(check int) "two defs survive" 2
            (List.length (Planner.Indexes.defs idx2));
          Planner.Indexes.drop eng2 idx2
            { Planner.Indexes.table = "enrolled"; attr = "grade"; kind = Hash };
          Alcotest.(check int) "one after drop" 1
            (List.length (Planner.Indexes.defs idx2));
          Alcotest.(check bool) "missing drop raises" true
            (match
               Planner.Indexes.drop eng2 idx2
                 {
                   Planner.Indexes.table = "enrolled";
                   attr = "grade";
                   kind = Hash;
                 }
             with
            | () -> false
            | exception Planner.Indexes.Index_error _ -> true)))

(* --- plan shape ----------------------------------------------------------- *)

let rec find_scan (p : Planner.Physical.t) =
  match p.Planner.Physical.node with
  | Planner.Physical.Scan { access; _ } -> Some access
  | _ ->
      List.find_map find_scan (Planner.Physical.children p)

let test_point_lookup_chosen () =
  with_university (fun _path eng ->
      let idx = Planner.Indexes.load eng in
      Planner.Indexes.create eng idx
        { Planner.Indexes.table = "students"; attr = "sid"; kind = Btree };
      let ctx = Planner.Plan.make eng in
      let q = A.Select (A.Cmp (A.Eq, A.Attr "sid", A.Const (Int 2)), A.Rel "students") in
      let plan = Planner.Plan.plan ctx q in
      (match find_scan plan with
      | Some (Planner.Physical.Point { attr; via = Btree; _ }) ->
          Alcotest.(check string) "point on sid" "sid" attr
      | _ -> Alcotest.fail "expected a point access path");
      (* explain text names the index path *)
      Alcotest.(check bool) "explain mentions index" true
        (let text = Planner.Physical.to_text plan in
         let re = "index point scan students via btree(sid = 2)" in
         (* plain substring search *)
         let rec contains i =
           i + String.length re <= String.length text
           && (String.sub text i (String.length re) = re || contains (i + 1))
         in
         contains 0);
      check_rel "point result matches eval"
        (R.Eval.eval university q)
        (Planner.Exec.run ctx plan))

let test_range_scan_chosen () =
  with_university (fun _path eng ->
      let idx = Planner.Indexes.load eng in
      Planner.Indexes.create eng idx
        { Planner.Indexes.table = "enrolled"; attr = "grade"; kind = Btree };
      let ctx = Planner.Plan.make eng in
      let q =
        A.Select
          ( A.And
              ( A.Cmp (A.Ge, A.Attr "grade", A.Const (Int 80)),
                A.Cmp (A.Lt, A.Attr "grade", A.Const (Int 95)) ),
            A.Rel "enrolled" )
      in
      let plan = Planner.Plan.plan ctx q in
      (match find_scan plan with
      | Some (Planner.Physical.Range { attr; lo = Some (Int 80); _ }) ->
          Alcotest.(check string) "range on grade" "grade" attr
      | _ -> Alcotest.fail "expected a range access path");
      check_rel "range result matches eval"
        (R.Eval.eval university q)
        (Planner.Exec.run ctx plan))

let test_no_index_full_scan () =
  with_university (fun _path eng ->
      let ctx = Planner.Plan.make eng in
      let q = A.Select (A.Cmp (A.Eq, A.Attr "sid", A.Const (Int 2)), A.Rel "students") in
      match find_scan (Planner.Plan.plan ctx q) with
      | Some Planner.Physical.Full -> ()
      | _ -> Alcotest.fail "expected a sequential scan without indexes")

let test_explain_json_valid () =
  with_university (fun _path eng ->
      let idx = Planner.Indexes.load eng in
      Planner.Indexes.create eng idx
        { Planner.Indexes.table = "students"; attr = "sid"; kind = Btree };
      let ctx = Planner.Plan.make eng in
      let q =
        A.Project
          ( [ "sname" ],
            A.Select
              ( A.Cmp (A.Ge, A.Attr "grade", A.Const (Int 80)),
                A.Join (A.Rel "students", A.Rel "enrolled") ) )
      in
      let plan = Planner.Plan.plan ctx q in
      (match Obs.Json.validate (Planner.Physical.to_json plan) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("invalid explain JSON: " ^ e));
      (* still valid once actual_rows are filled in *)
      ignore (Planner.Exec.run ctx plan : R.Relation.t);
      match Obs.Json.validate (Planner.Physical.to_json plan) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("invalid executed JSON: " ^ e))

(* --- executor vs Eval.eval ------------------------------------------------ *)

let fixed_queries =
  [
    A.Rel "students";
    A.Project ([ "sname"; "year" ], A.Rel "students");
    A.Select (A.Cmp (A.Ge, A.Attr "grade", A.Const (Int 85)), A.Rel "enrolled");
    A.Project
      ( [ "sname" ],
        A.Select
          ( A.Cmp (A.Eq, A.Attr "dept", A.Const (String "cs")),
            A.Join (A.Join (A.Rel "students", A.Rel "enrolled"), A.Rel "courses") ) );
    A.Union
      ( A.Select (A.Cmp (A.Eq, A.Attr "year", A.Const (Int 1)), A.Rel "students"),
        A.Select (A.Cmp (A.Eq, A.Attr "year", A.Const (Int 3)), A.Rel "students") );
    A.Diff
      ( A.Project ([ "sid" ], A.Rel "students"),
        A.Project ([ "sid" ], A.Rel "enrolled") );
    A.Product
      ( A.Project ([ "sid" ], A.Rel "students"),
        A.Project ([ "cid" ], A.Rel "courses") );
    A.Rename ([ ("sname", "name") ], A.Rel "students");
    A.Divide
      ( A.Project ([ "sid"; "cid" ], A.Rel "enrolled"),
        A.Project
          ( [ "cid" ],
            A.Select
              (A.Cmp (A.Eq, A.Attr "dept", A.Const (String "cs")), A.Rel "courses") ) );
    A.Singleton [ ("k", Int 1); ("tag", String "x") ];
  ]

let test_exec_matches_eval_fixed () =
  with_university (fun _path eng ->
      let idx = Planner.Indexes.load eng in
      Planner.Indexes.create eng idx
        { Planner.Indexes.table = "students"; attr = "sid"; kind = Btree };
      Planner.Indexes.create eng idx
        { Planner.Indexes.table = "enrolled"; attr = "grade"; kind = Btree };
      Planner.Indexes.create eng idx
        { Planner.Indexes.table = "courses"; attr = "dept"; kind = Hash };
      let ctx = Planner.Plan.make eng in
      List.iter
        (fun q ->
          let expected = R.Eval.eval university q in
          let got = Planner.Exec.run ctx (Planner.Plan.plan ctx q) in
          check_rel (A.to_string q) expected got)
        fixed_queries)

let test_exec_unoptimized_matches () =
  with_university (fun _path eng ->
      let config =
        { Planner.Plan.default_config with Planner.Plan.optimize = false }
      in
      let ctx = Planner.Plan.make ~config eng in
      List.iter
        (fun q ->
          check_rel (A.to_string q) (R.Eval.eval university q)
            (Planner.Exec.run ctx (Planner.Plan.plan ctx q)))
        fixed_queries)

let join_query =
  A.Project
    ( [ "sname"; "grade" ],
      A.Join (A.Rel "students", A.Rel "enrolled") )

let test_forced_join_algorithms_agree () =
  with_university (fun _path eng ->
      let run force =
        let config =
          { Planner.Plan.default_config with Planner.Plan.force_join = force }
        in
        let ctx = Planner.Plan.make ~config eng in
        Planner.Exec.run ctx (Planner.Plan.plan ctx join_query)
      in
      let expected = R.Eval.eval university join_query in
      check_rel "hash join" expected (run Planner.Plan.Force_hash);
      check_rel "merge join" expected (run Planner.Plan.Force_merge))

let test_merge_join_uses_index_order () =
  with_university (fun _path eng ->
      let idx = Planner.Indexes.load eng in
      Planner.Indexes.create eng idx
        { Planner.Indexes.table = "students"; attr = "sid"; kind = Btree };
      Planner.Indexes.create eng idx
        { Planner.Indexes.table = "enrolled"; attr = "sid"; kind = Btree };
      let config =
        {
          Planner.Plan.default_config with
          Planner.Plan.force_join = Planner.Plan.Force_merge;
        }
      in
      let ctx = Planner.Plan.make ~config eng in
      let plan = Planner.Plan.plan ctx (A.Join (A.Rel "students", A.Rel "enrolled")) in
      let ordered =
        Planner.Physical.fold
          (fun acc n ->
            match n.Planner.Physical.node with
            | Planner.Physical.Scan { access = Planner.Physical.Ordered _; _ } ->
                acc + 1
            | _ -> acc)
          0 plan
      in
      Alcotest.(check int) "both sides index-ordered" 2 ordered;
      check_rel "merge over index order matches eval"
        (R.Eval.eval university (A.Join (A.Rel "students", A.Rel "enrolled")))
        (Planner.Exec.run ctx plan))

let test_sort_spill () =
  let metrics = Obs.Registry.create () in
  with_university ~metrics (fun _path eng ->
      let config =
        {
          Planner.Plan.default_config with
          Planner.Plan.force_join = Planner.Plan.Force_merge;
          Planner.Plan.sort_spill = Some 2;
        }
      in
      let ctx = Planner.Plan.make ~config eng in
      let expected = R.Eval.eval university join_query in
      let got = Planner.Exec.run ctx (Planner.Plan.plan ctx join_query) in
      check_rel "spilling merge join matches eval" expected got;
      (match Obs.Registry.counter_value metrics "plan.spills" with
      | Some n -> Alcotest.(check bool) "spilled runs" true (n > 0)
      | None -> Alcotest.fail "plan.spills not registered"))

let test_actuals_and_counters () =
  let metrics = Obs.Registry.create () in
  with_university ~metrics (fun _path eng ->
      let idx = Planner.Indexes.load eng in
      Planner.Indexes.create eng idx
        { Planner.Indexes.table = "students"; attr = "sid"; kind = Btree };
      let ctx = Planner.Plan.make eng in
      let q = A.Select (A.Cmp (A.Eq, A.Attr "sid", A.Const (Int 2)), A.Rel "students") in
      let plan = Planner.Plan.plan ctx q in
      ignore (Planner.Exec.run ctx plan : R.Relation.t);
      Alcotest.(check int) "root actual rows" 1
        plan.Planner.Physical.meta.Planner.Physical.actual_rows;
      Alcotest.(check (option int)) "one planned query" (Some 1)
        (Obs.Registry.counter_value metrics "plan.queries");
      Alcotest.(check (option int)) "one execution" (Some 1)
        (Obs.Registry.counter_value metrics "plan.executions");
      Alcotest.(check (option int)) "index path counted" (Some 1)
        (Obs.Registry.counter_value metrics "plan.index_scans"))

(* --- multi-page tables ------------------------------------------------------ *)

(* [t] has 3,000 rows over many heap pages and 40 distinct values in
   [g], so an index on [g] spans many B+tree leaves and hash buckets
   (the QCheck gate's 8-row tables never fill one leaf); [u] maps each
   [g] to a label, for the merge join. *)
let wide_db =
  let t =
    R.Relation.of_list
      (R.Schema.make [ ("k", TInt); ("g", TInt); ("pad", TString) ])
      (List.init 3000 (fun i ->
           [ Int i; Int (i * 7 mod 40); String (Printf.sprintf "row-%04d" i) ]))
  in
  let u =
    R.Relation.of_list
      (R.Schema.make [ ("g", TInt); ("label", TString) ])
      (List.init 40 (fun g -> [ Int g; String (Printf.sprintf "g%02d" g) ]))
  in
  R.Database.add (R.Database.add R.Database.empty "t" t) "u" u

(* Save [wide_db] into a fresh engine, optionally analyze it, run [f]. *)
let with_wide ?metrics ~analyze f =
  let path = fresh_path () in
  let eng = Storage.Engine.open_db ?metrics path in
  Fun.protect
    ~finally:(fun () ->
      (try Storage.Engine.close eng with _ -> ());
      cleanup path)
    (fun () ->
      R.Database.fold
        (fun name rel () -> Storage.Engine.save_table eng name rel)
        wide_db ();
      if analyze then
        ignore (Planner.Stats.analyze eng [ "t"; "u" ] : Planner.Stats.t);
      f eng)

let chain_pages eng name =
  let _, first = Storage.Engine.find_table eng name in
  Storage.Heap.chain_pages (Storage.Engine.pool eng) ~first

let test_multi_page_indexes () =
  List.iter
    (fun kind ->
      with_wide ~analyze:true (fun eng ->
          Alcotest.(check bool) "t spans many pages" true (chain_pages eng "t" > 10);
          Planner.Indexes.create eng (Planner.Indexes.load eng)
            { Planner.Indexes.table = "t"; attr = "g"; kind };
          let name = Planner.Indexes.kind_to_string kind in
          let run ?config q =
            let ctx = Planner.Plan.make ?config eng in
            let plan = Planner.Plan.plan ctx q in
            check_rel (name ^ ": " ^ A.to_string q) (R.Eval.eval wide_db q)
              (Planner.Exec.run ctx plan);
            plan
          in
          let g op c = A.Cmp (op, A.Attr "g", A.Const (Int c)) in
          (match find_scan (run (A.Select (g A.Eq 17, A.Rel "t"))) with
          | Some (Planner.Physical.Point { via; _ }) when via = kind -> ()
          | _ -> Alcotest.fail (name ^ ": expected an index point scan"));
          let range =
            run (A.Select (A.And (g A.Ge 10, g A.Le 11), A.Rel "t"))
          in
          (match (kind, find_scan range) with
          | Planner.Indexes.Btree, Some (Planner.Physical.Range _)
          | Planner.Indexes.Hash, Some Planner.Physical.Full ->
              ()
          | _ -> Alcotest.fail (name ^ ": unexpected range access path"));
          let merge =
            run
              ~config:
                {
                  Planner.Plan.default_config with
                  Planner.Plan.force_join = Planner.Plan.Force_merge;
                }
              (A.Join (A.Rel "t", A.Rel "u"))
          in
          let ordered =
            Planner.Physical.fold
              (fun n node ->
                match node.Planner.Physical.node with
                | Planner.Physical.Scan { access = Planner.Physical.Ordered _; _ }
                  ->
                    n + 1
                | _ -> n)
              0 merge
          in
          Alcotest.(check int) (name ^ ": index-ordered merge inputs")
            (if kind = Planner.Indexes.Btree then 1 else 0)
            ordered))
    [ Planner.Indexes.Btree; Planner.Indexes.Hash ]

(* [collect] reads the table once; its rows must be what loading the
   table and walking its chain separately gave. *)
let test_stats_one_pass_unchanged () =
  with_wide ~analyze:false (fun eng ->
      let expected name =
        let rel = Storage.Engine.load_table eng name in
        let sch = R.Relation.schema rel in
        {
          Planner.Stats.rows = R.Relation.cardinality rel;
          pages = chain_pages eng name;
          columns =
            List.map
              (fun attr ->
                let values = Hashtbl.create 64 in
                let pos = R.Schema.index_of sch attr in
                R.Relation.iter (fun tup -> Hashtbl.replace values tup.(pos) ()) rel;
                { Planner.Stats.attr; distinct = Hashtbl.length values })
              (R.Schema.attributes sch);
        }
      in
      let want = [ ("t", expected "t"); ("u", expected "u") ] in
      Alcotest.(check bool) "analyze" true
        (Planner.Stats.analyze eng [ "t"; "u" ] = want);
      let persisted = Storage.Engine.load_table eng Planner.Stats.stats_table in
      check_rel "__stats rows"
        (R.Relation.of_list (R.Relation.schema persisted)
           (List.concat_map
              (fun (name, tb) ->
                List.map
                  (fun c ->
                    [
                      String name;
                      String c.Planner.Stats.attr;
                      Int tb.Planner.Stats.rows;
                      Int tb.Planner.Stats.pages;
                      Int c.Planner.Stats.distinct;
                    ])
                  tb.Planner.Stats.columns)
              want))
        persisted)

let pool_fetches metrics =
  List.fold_left
    (fun acc name ->
      acc + Option.value ~default:0 (Obs.Registry.counter_value metrics name))
    0 [ "pool.hits"; "pool.misses" ]

let scan_pages plan =
  Planner.Physical.fold
    (fun acc node ->
      match node.Planner.Physical.node with
      | Planner.Physical.Scan { pages; _ } -> pages :: acc
      | _ -> acc)
    [] plan

let test_planning_reads_no_page () =
  let metrics = Obs.Registry.create () in
  let q = R.Query_parser.parse "select[g = 3 and k >= 100](t join u)" in
  with_wide ~metrics ~analyze:true (fun eng ->
      Planner.Indexes.create eng (Planner.Indexes.load eng)
        { Planner.Indexes.table = "t"; attr = "k"; kind = Btree };
      let ctx = Planner.Plan.make eng in
      let before = pool_fetches metrics in
      ignore (Planner.Plan.plan ctx q : Planner.Physical.t);
      Alcotest.(check int) "analyzed: no page fetched" before
        (pool_fetches metrics));
  (* without a __stats row the chain is walked *)
  with_wide ~metrics ~analyze:false (fun eng ->
      let ctx = Planner.Plan.make eng in
      let plan = Planner.Plan.plan ctx (A.Rel "t") in
      Alcotest.(check (list int)) "pages = chain_pages" [ chain_pages eng "t" ]
        (scan_pages plan))

(* --- the QCheck equivalence property -------------------------------------- *)

let property count name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

(* Save every relation of a random database into a fresh engine, create
   indexes on a seed-dependent subset of columns, and check the chosen
   physical plan evaluates to exactly Eval.eval's relation. *)
let prop_physical_matches_eval =
  property 40 "physical plan = Eval.eval (random db, random indexes)"
    seed_gen (fun seed ->
      let rng = Support.Rng.create seed in
      let db =
        R.Generator.random_database rng ~relations:3 ~arity:3 ~size:8 ~domain:5
      in
      let q = R.Generator.random_query rng db ~depth:3 ~domain:5 in
      let path = fresh_path () in
      let eng = Storage.Engine.open_db path in
      Fun.protect
        ~finally:(fun () ->
          Storage.Engine.close eng;
          cleanup path)
        (fun () ->
          R.Database.fold
            (fun name rel () -> Storage.Engine.save_table eng name rel)
            db ();
          ignore (Planner.Stats.analyze eng (R.Database.names db) : Planner.Stats.t);
          let idx = Planner.Indexes.load eng in
          (* index a seed-dependent subset of columns, both kinds *)
          R.Database.fold
            (fun name rel () ->
              let attrs = R.Schema.attributes (R.Relation.schema rel) in
              List.iteri
                (fun i attr ->
                  let kind =
                    if (seed + i) mod 3 = 0 then Some Planner.Indexes.Btree
                    else if (seed + i) mod 3 = 1 then Some Planner.Indexes.Hash
                    else None
                  in
                  match kind with
                  | Some kind ->
                      Planner.Indexes.create eng idx
                        { Planner.Indexes.table = name; attr; kind }
                  | None -> ())
                attrs)
            db ();
          let ctx = Planner.Plan.make eng in
          let expected = R.Eval.eval db q in
          let got = Planner.Exec.run ctx (Planner.Plan.plan ctx q) in
          R.Relation.equal expected got))

let prop_forced_merge_matches_eval =
  property 25 "forced merge join = Eval.eval (random db)" seed_gen
    (fun seed ->
      let rng = Support.Rng.create seed in
      let db =
        R.Generator.random_database rng ~relations:2 ~arity:3 ~size:10 ~domain:4
      in
      let q = R.Generator.random_query rng db ~depth:3 ~domain:4 in
      let path = fresh_path () in
      let eng = Storage.Engine.open_db path in
      Fun.protect
        ~finally:(fun () ->
          Storage.Engine.close eng;
          cleanup path)
        (fun () ->
          R.Database.fold
            (fun name rel () -> Storage.Engine.save_table eng name rel)
            db ();
          let config =
            {
              Planner.Plan.default_config with
              Planner.Plan.force_join = Planner.Plan.Force_merge;
              Planner.Plan.sort_spill = Some 3;
            }
          in
          let ctx = Planner.Plan.make ~config eng in
          R.Relation.equal (R.Eval.eval db q)
            (Planner.Exec.run ctx (Planner.Plan.plan ctx q))))

(* --- chase-based join elimination and the certifier ----------------------- *)

let scan_count plan =
  Planner.Physical.fold
    (fun n node -> if Planner.Physical.children node = [] then n + 1 else n)
    0 plan

let self_join_q =
  R.Query_parser.parse
    "project[sid, sname](students join rename[sname -> s2, year -> \
     y2](students))"

(* sid is a key of the students fixture (distinct = rows), so the chase
   folds the self-join to a single scan — and the result is unchanged. *)
let test_join_elimination_fixed () =
  with_university (fun _path eng ->
      let ctx = Planner.Plan.make eng in
      let plan = Planner.Plan.plan ctx self_join_q in
      Alcotest.(check int) "one scan after elimination" 1 (scan_count plan);
      Alcotest.(check bool) "counter recorded the dropped join" true
        (Obs.Registry.Counter.value
           (Planner.Plan.instruments ctx).Planner.Plan.i_join_eliminations
        >= 1);
      let expected = R.Eval.eval university self_join_q in
      check_rel "eliminated plan evaluates identically" expected
        (Planner.Exec.run ctx plan);
      (* the rewrite off: the join (two scans) comes back *)
      let config =
        { Planner.Plan.default_config with Planner.Plan.semantic = false }
      in
      let ctx' = Planner.Plan.make ~config eng in
      let plan' = Planner.Plan.plan ctx' self_join_q in
      Alcotest.(check int) "two scans without the rewrite" 2 (scan_count plan');
      check_rel "both paths agree" expected (Planner.Exec.run ctx' plan'))

let test_certify_fixed () =
  with_university (fun _path eng ->
      let ctx = Planner.Plan.make eng in
      let plan = Planner.Plan.plan ctx self_join_q in
      let report = Planner.Certify.certify ctx self_join_q plan in
      Alcotest.(check int) "five stages" 5 (List.length report);
      Alcotest.(check bool) "all stages prove out" true
        (List.for_all
           (fun s -> s.Planner.Certify.verdict = Planner.Certify.Equivalent)
           report);
      Alcotest.(check bool) "report is ok" true (Planner.Certify.ok report))

(* Translation validation as a standing gate: whatever rewrite sequence
   the optimizer picks on a random database must certify — a [Refuted]
   stage here is a planner bug (the prover only refutes on the fragment
   where it is complete). *)
let prop_certify_never_refutes =
  property 30 "certifier never refutes an optimizer rewrite (random db)"
    seed_gen (fun seed ->
      let rng = Support.Rng.create seed in
      let db =
        R.Generator.random_database rng ~relations:3 ~arity:3 ~size:8 ~domain:5
      in
      let q = R.Generator.random_query rng db ~depth:3 ~domain:5 in
      let path = fresh_path () in
      let eng = Storage.Engine.open_db path in
      Fun.protect
        ~finally:(fun () ->
          Storage.Engine.close eng;
          cleanup path)
        (fun () ->
          R.Database.fold
            (fun name rel () -> Storage.Engine.save_table eng name rel)
            db ();
          ignore
            (Planner.Stats.analyze eng (R.Database.names db) : Planner.Stats.t);
          let ctx = Planner.Plan.make eng in
          let plan = Planner.Plan.plan ctx q in
          Planner.Certify.ok (Planner.Certify.certify ctx q plan)))

(* Join elimination is on by default in the main differential property
   above; this one pins the comparison the other way: with the semantic
   rewrite forced off, results still match the rewritten path. *)
let prop_semantic_rewrite_preserves_results =
  property 25 "semantic rewrite on/off agree (random db)" seed_gen
    (fun seed ->
      let rng = Support.Rng.create seed in
      let db =
        R.Generator.random_database rng ~relations:2 ~arity:3 ~size:6 ~domain:3
      in
      let q = R.Generator.random_query rng db ~depth:3 ~domain:3 in
      let path = fresh_path () in
      let eng = Storage.Engine.open_db path in
      Fun.protect
        ~finally:(fun () ->
          Storage.Engine.close eng;
          cleanup path)
        (fun () ->
          R.Database.fold
            (fun name rel () -> Storage.Engine.save_table eng name rel)
            db ();
          ignore
            (Planner.Stats.analyze eng (R.Database.names db) : Planner.Stats.t);
          let on = Planner.Plan.make eng in
          let off =
            Planner.Plan.make
              ~config:
                {
                  Planner.Plan.default_config with
                  Planner.Plan.semantic = false;
                }
              eng
          in
          R.Relation.equal
            (Planner.Exec.run on (Planner.Plan.plan on q))
            (Planner.Exec.run off (Planner.Plan.plan off q))))

(* --- fence scans ----------------------------------------------------------- *)

module P = Planner.Physical
module Heap = Storage.Heap

let is_fenced plan =
  match find_scan plan with Some (P.Fenced _) -> true | _ -> false

(* The selection with its access path pinned to a heap scan. *)
let forced_scan ctx table pred =
  let scan =
    P.make
      (P.Scan { table; access = P.Full; pages = 0 })
      (Planner.Plan.catalog ctx table)
  in
  P.make (P.Filter (pred, scan)) scan.P.schema

let catalog_entry eng name =
  List.find (fun tb -> tb.Heap.name = name) (Storage.Engine.tables eng)

(* A table of 300-3,000 rows whose leading column [k] takes 2-40 values,
   integers or strings by seed, so runs of equal keys straddle page
   boundaries; [id] keeps rows distinct and [pad] varies the rows per
   page.  [const j ~between] names the [j]-th key, a value just above it,
   or (for [j] outside the domain) a value below or above every key. *)
type fence_db = {
  rel : R.Relation.t;
  distinct : int;
  const : int -> between:bool -> R.Value.t;
}

let fence_db rng =
  let rows = Support.Rng.range rng 300 3000 in
  let distinct = Support.Rng.range rng 2 40 in
  let strings = Support.Rng.bool rng in
  let const j ~between =
    if strings then
      if j < 0 then String "a"
      else if j >= distinct then String "z"
      else String (Printf.sprintf "key%02d%s" j (if between then "+" else ""))
    else Int ((3 * j) + if between then 1 else 0)
  in
  let rel =
    R.Relation.of_list
      (R.Schema.make
         [ ("k", if strings then TString else TInt); ("id", TInt); ("pad", TString) ])
      (List.init rows (fun id ->
           [
             const (Support.Rng.int rng distinct) ~between:false;
             Int id;
             String (String.make (Support.Rng.range rng 1 30) 'p');
           ]))
  in
  { rel; distinct; const }

(* Point, one-sided, two-sided, empty and out-of-domain predicates on
   [k], each with an optional residual conjunct on [id]. *)
let fence_pred rng fdb =
  let c () =
    fdb.const
      (Support.Rng.range rng (-1) fdb.distinct)
      ~between:(Support.Rng.bool rng)
  in
  let k cmp v = A.Cmp (cmp, A.Attr "k", A.Const v) in
  let core =
    match Support.Rng.int rng 8 with
    | 0 -> k A.Eq (c ())
    | 1 -> k A.Lt (c ())
    | 2 -> k A.Le (c ())
    | 3 -> k A.Gt (c ())
    | 4 -> k A.Ge (c ())
    | 5 -> A.And (k A.Ge (c ()), k A.Le (c ()))
    | 6 ->
        (* empty: the lower bound above the upper *)
        let hi = fdb.const (Support.Rng.int rng fdb.distinct) ~between:false in
        A.And (k A.Gt (fdb.const fdb.distinct ~between:false), k A.Lt hi)
    | _ ->
        (* wholly outside the domain, below or above *)
        let j = if Support.Rng.bool rng then -1 else fdb.distinct in
        A.And (k A.Ge (fdb.const j ~between:false), k A.Le (fdb.const j ~between:true))
  in
  if Support.Rng.bool rng then
    A.And (core, A.Cmp (A.Lt, A.Attr "id", A.Const (Int (Support.Rng.int rng 3000))))
  else core

let prop_fences_match_eval =
  property 50 "fence scan = Eval.eval (multi-page tables, duplicate keys)"
    seed_gen (fun seed ->
      let rng = Support.Rng.create seed in
      let fdb = fence_db rng in
      let db = R.Database.add R.Database.empty "t" fdb.rel in
      let path = fresh_path () in
      let eng = Storage.Engine.open_db path in
      Fun.protect
        ~finally:(fun () ->
          Storage.Engine.close eng;
          cleanup path)
        (fun () ->
          Storage.Engine.save_table eng "t" fdb.rel;
          if seed mod 2 = 0 then
            ignore (Planner.Stats.analyze eng [ "t" ] : Planner.Stats.t);
          (* an index on [k] must not win over the fences *)
          (match seed mod 3 with
          | 0 -> ()
          | m ->
              Planner.Indexes.create eng (Planner.Indexes.load eng)
                {
                  Planner.Indexes.table = "t";
                  attr = "k";
                  kind = (if m = 1 then Btree else Hash);
                });
          let ctx = Planner.Plan.make eng in
          List.for_all
            (fun _ ->
              let q = A.Select (fence_pred rng fdb, A.Rel "t") in
              let plan = Planner.Plan.plan ctx q in
              is_fenced plan
              && R.Relation.equal (R.Eval.eval db q) (Planner.Exec.run ctx plan))
            [ 1; 2; 3; 4 ]))

(* Random relations of 0-3,000 rows over small domains of every value
   type: whatever is saved, the chain is in Tuple.compare order and its
   fences are exactly each data page's first leading value and page id,
   in chain order, on pages of the fence kind; a one-page chain has
   none. *)
let prop_chain_sorted_and_fenced =
  property 40 "saved chains are sorted; fences name each page's first key"
    seed_gen (fun seed ->
      let rng = Support.Rng.create seed in
      let types = [| TInt; TString; TFloat; TBool |] in
      let arity = Support.Rng.range rng 1 3 in
      let schema =
        R.Schema.make
          (List.init arity (fun i ->
               (Printf.sprintf "c%d" i, Support.Rng.pick rng types)))
      in
      let value ty =
        let d = Support.Rng.int rng 50 in
        match ty with
        | TInt -> Int (d - 10)
        | TString -> String (String.make (1 + (d mod 7)) (Char.chr (97 + (d mod 26))))
        | TFloat -> Float (float_of_int d /. 4.)
        | TBool -> Bool (d mod 2 = 0)
      in
      let rows =
        if Support.Rng.int rng 3 = 0 then Support.Rng.int rng 40
        else Support.Rng.range rng 300 3000
      in
      let rel =
        R.Relation.of_list schema
          (List.init rows (fun _ ->
               List.map (fun (_, ty) -> value ty) (R.Schema.pairs schema)))
      in
      let path = fresh_path () in
      let eng = Storage.Engine.open_db path in
      Fun.protect
        ~finally:(fun () ->
          Storage.Engine.close eng;
          cleanup path)
        (fun () ->
          Storage.Engine.save_table eng "t" rel;
          let pool = Storage.Engine.pool eng in
          let tb = catalog_entry eng "t" in
          (* the chain, page by page: (page id, its tuples) *)
          let rec pages id =
            if id = 0 then []
            else
              let rows = ref [] in
              let next =
                Heap.scan_page pool id (R.Codec.view ()) (fun v ->
                    rows := R.Codec.tuple v :: !rows)
              in
              (id, List.rev !rows) :: pages next
          in
          let chain = pages tb.Heap.first in
          let tuples = List.concat_map snd chain in
          let rec sorted = function
            | a :: (b :: _ as rest) -> R.Tuple.compare a b < 0 && sorted rest
            | _ -> true
          in
          let expected =
            List.filter_map
              (fun (page, tups) ->
                match tups with
                | first :: _ -> Some (first.(0), page)
                | [] -> None)
              chain
          in
          let rec fence_kinds id =
            id = 0
            || Storage.Buffer_pool.with_page pool id (fun p ->
                   Storage.Page.kind p = Heap.kind_fence
                   && fence_kinds (Storage.Page.next p))
          in
          sorted tuples
          && R.Relation.equal rel (R.Relation.of_tuples schema tuples)
          &&
          match (chain, tb.Heap.fences) with
          | [ _ ], None -> true
          | _ :: _ :: _, Some { Heap.root; count } -> (
              count = List.length chain
              && fence_kinds root
              &&
              match Heap.read_fences pool tb with
              | Some fences ->
                  List.map (fun f -> (f.Heap.key, f.Heap.page)) (Array.to_list fences)
                  = expected
              | None -> false)
          | _ -> false))

(* Leading-column predicates over [fence_rows]' key column [k]. *)
let fence_queries =
  let k cmp v = A.Cmp (cmp, A.Attr "k", A.Const (Int v)) in
  [
    k A.Eq 120;
    k A.Eq 7;
    k A.Ge 400;
    k A.Lt 33;
    A.And (k A.Ge 150, k A.Le 210);
    A.And (k A.Gt 500, k A.Lt 100);
  ]

(* 1,200 rows over 200 keys, six per key, about ten heap pages; [salt]
   changes every row's [g] and [pad], so two versions share keys but no
   row. *)
let fence_rows salt =
  R.Relation.of_list
    (R.Schema.make [ ("k", TInt); ("g", TInt); ("pad", TString) ])
    (List.init 1200 (fun i ->
         [
           Int (i mod 200);
           Int ((i * 7) + salt);
           String (Printf.sprintf "v%d-%04d" salt i);
         ]))

(* A query's outcome: its rows, or the table chain is unreadable. *)
let outcome ctx plan =
  match Planner.Exec.run ctx plan with
  | rel -> Ok rel
  | exception Storage.Pager.Corrupt _ -> Error ()

let same_outcome a b =
  match (a, b) with
  | Ok x, Ok y -> R.Relation.equal x y
  | Error (), Error () -> true
  | _ -> false

(* Crash at every I/O of a save_table that replaces a fenced multi-page
   table, with a 2-frame pool so dirty pages are stolen mid-save.  After
   reopening, every fence scan must return what a forced full scan of
   the same table returns.  A replace publishes its catalog entry only
   after its fence pages are durable, so no crash point may leave fences
   to refuse. *)
let test_fence_crash_matrix () =
  let v1 = fence_rows 1 and v2 = fence_rows 2 in
  let k = ref 0 and continue = ref true and fallbacks = ref 0 in
  while !continue do
    let path = fresh_path () in
    let eng = Storage.Engine.open_db ~pool_size:2 path in
    Storage.Engine.save_table eng "t" v1;
    ignore (Planner.Stats.analyze eng [ "t" ] : Planner.Stats.t);
    Storage.Engine.close eng;
    (match Storage.Engine.open_db ~pool_size:2 ~crash_after:!k path with
    | exception Storage.Fault.Crash _ -> ()
    | eng -> (
        match
          Storage.Engine.save_table eng "t" v2;
          Storage.Engine.close eng
        with
        | () -> continue := false
        | exception Storage.Fault.Crash _ -> Storage.Engine.crash eng));
    let metrics = Obs.Registry.create () in
    let eng = Storage.Engine.open_db ~pool_size:2 ~metrics path in
    let ctx = Planner.Plan.make eng in
    List.iter
      (fun pred ->
        let what = Printf.sprintf "crash at io %d: %s" !k (A.predicate_to_string pred) in
        let plan = Planner.Plan.plan ctx (A.Select (pred, A.Rel "t")) in
        Alcotest.(check bool) (what ^ ": fence scan") true (is_fenced plan);
        Alcotest.(check bool) (what ^ ": fences = forced scan") true
          (same_outcome (outcome ctx plan) (outcome ctx (forced_scan ctx "t" pred))))
      fence_queries;
    fallbacks :=
      !fallbacks
      + Option.value ~default:0
          (Obs.Registry.counter_value metrics "plan.fence_fallbacks");
    Storage.Engine.close eng;
    cleanup path;
    incr k;
    if !k > 500 then Alcotest.fail "fence crash matrix did not terminate"
  done;
  Alcotest.(check bool) "several crash points" true (!k > 10);
  Alcotest.(check int) "no crash point left fences to refuse" 0 !fallbacks

(* A fence page torn or bit-flipped on disk: the scan falls back to the
   chain walk and answers; the CRC failure is counted, once per
   context, and no Pager.Corrupt escapes. *)
let test_damaged_fence_page () =
  let rel = fence_rows 3 in
  let db = R.Database.add R.Database.empty "t" rel in
  List.iter
    (fun (what, damage) ->
      let path = fresh_path () in
      let eng = Storage.Engine.open_db path in
      Storage.Engine.save_table eng "t" rel;
      let root =
        match (catalog_entry eng "t").Heap.fences with
        | Some f -> f.Heap.root
        | None -> Alcotest.fail "t should be fenced"
      in
      Storage.Engine.close eng;
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
      let page = Bytes.create Storage.Page.size in
      ignore (Unix.lseek fd (root * Storage.Page.size) Unix.SEEK_SET);
      ignore (Unix.read fd page 0 Storage.Page.size);
      damage page;
      ignore (Unix.lseek fd (root * Storage.Page.size) Unix.SEEK_SET);
      ignore (Unix.write fd page 0 Storage.Page.size);
      Unix.close fd;
      let metrics = Obs.Registry.create () in
      let eng = Storage.Engine.open_db ~metrics path in
      let ctx = Planner.Plan.make eng in
      List.iter
        (fun pred ->
          let q = A.Select (pred, A.Rel "t") in
          let plan = Planner.Plan.plan ctx q in
          Alcotest.(check bool) (what ^ ": fence plan") true (is_fenced plan);
          check_rel (what ^ ": " ^ A.to_string q) (R.Eval.eval db q)
            (Planner.Exec.run ctx plan))
        fence_queries;
      let count name =
        Option.value ~default:0 (Obs.Registry.counter_value metrics name)
      in
      Alcotest.(check int) (what ^ ": crc failure counted") 1
        (count "pager.crc_failures");
      Alcotest.(check int) (what ^ ": every fence scan fell back")
        (List.length fence_queries)
        (count "plan.fence_fallbacks");
      Storage.Engine.close eng;
      cleanup path)
    [
      ( "torn",
        fun page ->
          Bytes.fill page (Storage.Page.size / 2) (Storage.Page.size / 2) '\000' );
      ( "bit flip",
        fun page ->
          Bytes.set_uint8 page 40 (Bytes.get_uint8 page 40 lxor 0x10) );
    ]

(* A catalog entry in the encoding used before fence chains existed —
   name, schema, first page, nothing after — decodes as unfenced, and
   its multi-page table still answers leading-column queries. *)
let test_pre_fence_catalog_entry () =
  let rel = fence_rows 4 in
  let db = R.Database.add R.Database.empty "t" rel in
  let path = fresh_path () in
  let eng = Storage.Engine.open_db path in
  Storage.Engine.save_table eng "t" rel;
  let tb = catalog_entry eng "t" in
  Alcotest.(check bool) "saved fenced" true (tb.Heap.fences <> None);
  let old_entry =
    let buf = Buffer.create 64 in
    Buffer.add_uint16_le buf 1;
    Buffer.add_string buf "t";
    R.Codec.add_schema buf tb.Heap.schema;
    Buffer.add_int32_le buf (Int32.of_int tb.Heap.first);
    Buffer.contents buf
  in
  let pool = Storage.Engine.pool eng in
  let root = Storage.Pager.catalog_root (Storage.Engine.pager eng) in
  Storage.Buffer_pool.with_page pool root (fun page ->
      let blank = Storage.Page.init ~kind:Heap.kind_catalog in
      ignore (Storage.Page.insert blank old_entry : int);
      Bytes.blit blank 0 page 0 Storage.Page.size;
      Storage.Buffer_pool.mark_dirty pool root);
  Storage.Engine.close eng;
  let eng = Storage.Engine.open_db path in
  Fun.protect
    ~finally:(fun () ->
      Storage.Engine.close eng;
      cleanup path)
    (fun () ->
      let tb' = catalog_entry eng "t" in
      Alcotest.(check bool) "decodes unfenced" true (tb'.Heap.fences = None);
      Alcotest.(check int) "same chain" tb.Heap.first tb'.Heap.first;
      let ctx = Planner.Plan.make eng in
      List.iter
        (fun pred ->
          let q = A.Select (pred, A.Rel "t") in
          let plan = Planner.Plan.plan ctx q in
          Alcotest.(check bool) "no fence scan" false (is_fenced plan);
          check_rel (A.to_string q) (R.Eval.eval db q) (Planner.Exec.run ctx plan))
        fence_queries)

(* One version of a table per planning context: after [t] is replaced
   inside a context, a fence scan, the same selection forced to a full
   scan, and a B+tree lookup on a non-leading column all still read the
   version the context was made on. *)
let test_one_version_per_context () =
  let v1 = fence_rows 5 and v2 = fence_rows 6 in
  let path = fresh_path () in
  let eng = Storage.Engine.open_db path in
  Fun.protect
    ~finally:(fun () ->
      Storage.Engine.close eng;
      cleanup path)
    (fun () ->
      Storage.Engine.save_table eng "t" v1;
      ignore (Planner.Stats.analyze eng [ "t" ] : Planner.Stats.t);
      Planner.Indexes.create eng (Planner.Indexes.load eng)
        { Planner.Indexes.table = "t"; attr = "g"; kind = Btree };
      let ctx = Planner.Plan.make eng in
      Storage.Engine.save_table eng "t" v2;
      let old = R.Database.add R.Database.empty "t" v1 in
      let range =
        A.And
          ( A.Cmp (A.Ge, A.Attr "k", A.Const (Int 40)),
            A.Cmp (A.Le, A.Attr "k", A.Const (Int 45)) )
      in
      let fenced = Planner.Plan.plan ctx (A.Select (range, A.Rel "t")) in
      Alcotest.(check bool) "fence scan" true (is_fenced fenced);
      check_rel "fence scan reads the context's version"
        (R.Eval.eval old (A.Select (range, A.Rel "t")))
        (Planner.Exec.run ctx fenced);
      check_rel "full scan reads the context's version"
        (R.Eval.eval old (A.Select (range, A.Rel "t")))
        (Planner.Exec.run ctx (forced_scan ctx "t" range));
      (* g = 705 is a row of v1 only, g = 706 of v2 only *)
      let g v = A.Select (A.Cmp (A.Eq, A.Attr "g", A.Const (Int v)), A.Rel "t") in
      let point = Planner.Plan.plan ctx (g 705) in
      (match find_scan point with
      | Some (P.Point { attr = "g"; via = Btree; _ }) -> ()
      | _ -> Alcotest.fail "expected a B+tree point lookup on g");
      check_rel "B+tree lookup reads the context's version"
        (R.Eval.eval old (g 705))
        (Planner.Exec.run ctx point);
      (* a fresh context sees the replacement *)
      let fresh = Planner.Plan.make eng in
      check_rel "a new context reads the new version"
        (R.Eval.eval (R.Database.add R.Database.empty "t" v2) (g 706))
        (Planner.Exec.run fresh (Planner.Plan.plan fresh (g 706))))

(* --- copy-on-write replaces ------------------------------------------------ *)

(* A replaced table's pages wait for the next open: a context made on
   v1 still reads v1 after two more replaces in the same engine, which
   must find room elsewhere; after a reopen a replace fits in the pages
   they freed. *)
let test_retired_pages_wait () =
  let v1 = fence_rows 7 and v2 = fence_rows 8 and v3 = fence_rows 9 in
  let path = fresh_path () in
  let eng = Storage.Engine.open_db path in
  Storage.Engine.save_table eng "t" v1;
  let ctx = Planner.Plan.make eng in
  Storage.Engine.save_table eng "t" v2;
  Storage.Engine.save_table eng "t" v3;
  let pred = A.Cmp (A.Ge, A.Attr "k", A.Const (Int 40)) in
  let q = A.Select (pred, A.Rel "t") in
  let expected = R.Eval.eval (R.Database.add R.Database.empty "t" v1) q in
  let plan = Planner.Plan.plan ctx q in
  Alcotest.(check bool) "fence scan" true (is_fenced plan);
  check_rel "fence scan reads v1" expected (Planner.Exec.run ctx plan);
  check_rel "full scan reads v1" expected (Planner.Exec.run ctx (forced_scan ctx "t" pred));
  Storage.Engine.close eng;
  let eng = Storage.Engine.open_db path in
  let pages = Storage.Pager.page_count (Storage.Engine.pager eng) in
  Storage.Engine.save_table eng "t" v1;
  Alcotest.(check int) "the next open's replace fits in freed pages" pages
    (Storage.Pager.page_count (Storage.Engine.pager eng));
  Storage.Engine.close eng;
  cleanup path

(* The test's own ownership walk, apart from Heap.owned_pages: every
   page of the item chain, of the catalog chain, and of each entry's
   data and fence chains, data chains walked whole.  Names a page that
   is in two chains or past the end of the file. *)
let ownership_clash eng =
  let pool = Storage.Engine.pool eng and pager = Storage.Engine.pager eng in
  let owner = Hashtbl.create 64 and clash = ref None in
  let rec walk what id =
    if id <> 0 && !clash = None then
      if id >= Storage.Pager.page_count pager then
        clash := Some (Printf.sprintf "%s: page %d past the end" what id)
      else
        match Hashtbl.find_opt owner id with
        | Some other -> clash := Some (Printf.sprintf "page %d in %s and %s" id other what)
        | None ->
            Hashtbl.replace owner id what;
            walk what (Storage.Buffer_pool.with_page pool id Storage.Page.next)
  in
  walk "items" (Storage.Pager.items_root pager);
  walk "catalog" (Storage.Pager.catalog_root pager);
  List.iter
    (fun tb ->
      walk tb.Heap.name tb.Heap.first;
      Option.iter (fun f -> walk (tb.Heap.name ^ " fences") f.Heap.root) tb.Heap.fences)
    (Heap.catalog pool);
  !clash

let files path = List.map Support.Io.read_file [ path; Storage.Engine.wal_path path ]

(* Crash at every I/O of [op] on a file with free pages, with a 2-frame
   pool: [t] saved as v0 beside two committed items, replaced by v1 in
   a later open (so v0's pages are free), then [op] under a crash budget
   stepped until it completes.  After every crash the reopened file must
   pass [check] without a Pager.Corrupt, hold the committed items and
   put no page in two chains; a fault-free replace must then succeed,
   and a clean reopen change no byte. *)
let replace_crash_matrix op check =
  let v0 = fence_rows 10 and v1 = fence_rows 11 and v3 = fence_rows 13 in
  let k = ref 0 and continue = ref true in
  while !continue do
    let path = fresh_path () in
    let session f =
      let eng = Storage.Engine.open_db ~pool_size:2 path in
      f eng;
      Storage.Engine.close eng
    in
    session (fun eng ->
        Storage.Engine.save_table eng "t" v0;
        let txn = Storage.Engine.begin_txn eng in
        Storage.Engine.write eng ~txn "x" 1;
        Storage.Engine.write eng ~txn "y" 2;
        Storage.Engine.commit eng ~txn);
    session (fun eng ->
        Storage.Engine.save_table eng "t" v1;
        ignore (Planner.Stats.analyze eng [ "t" ] : Planner.Stats.t));
    (match Storage.Engine.open_db ~pool_size:2 ~crash_after:!k path with
    | exception Storage.Fault.Crash _ -> ()
    | eng -> (
        match
          op eng;
          Storage.Engine.close eng
        with
        | () -> continue := false
        | exception Storage.Fault.Crash _ -> Storage.Engine.crash eng));
    let what = Printf.sprintf "crash at io %d" !k in
    session (fun eng ->
        (match check eng ~v1 with
        | ok -> Alcotest.(check bool) (what ^ ": old or new state") true ok
        | exception Storage.Pager.Corrupt m -> Alcotest.failf "%s: %s" what m);
        Alcotest.(check (list (pair string int)))
          (what ^ ": committed items") [ ("x", 1); ("y", 2) ] (Storage.Engine.items eng);
        Alcotest.(check (option string)) (what ^ ": one owner per page") None
          (ownership_clash eng);
        Storage.Engine.save_table eng "t" v3);
    let before = files path in
    session (fun eng -> check_rel (what ^ ": v3") v3 (Storage.Engine.load_table eng "t"));
    Alcotest.(check bool) (what ^ ": a clean reopen changes no byte") true
      (files path = before);
    cleanup path;
    incr k;
    if !k > 500 then Alcotest.fail "replace crash matrix did not terminate"
  done;
  Alcotest.(check bool) "several crash points" true (!k > 10)

(* db load: [t] is v1 or v2 after every crash. *)
let test_replace_crash_matrix () =
  let v2 = fence_rows 12 in
  replace_crash_matrix
    (fun eng -> Storage.Engine.save_table eng "t" v2)
    (fun eng ~v1 ->
      let t = Storage.Engine.load_table eng "t" in
      R.Relation.equal t v1 || R.Relation.equal t v2)

(* db index create: the index catalog is without or with the new index,
   [t] is untouched, and the statistics read back. *)
let test_index_create_crash_matrix () =
  let def = { Planner.Indexes.table = "t"; attr = "g"; kind = Btree } in
  replace_crash_matrix
    (fun eng ->
      Planner.Indexes.create eng (Planner.Indexes.load eng) def;
      ignore (Planner.Stats.analyze eng [ "t" ] : Planner.Stats.t))
    (fun eng ~v1 ->
      let defs = Planner.Indexes.defs (Planner.Indexes.load eng) in
      (defs = [] || defs = [ def ])
      && Planner.Stats.find (Planner.Stats.load eng) "t" <> None
      && R.Relation.equal (Storage.Engine.load_table eng "t") v1)

(* Random sequences of table saves (empty, one page, several pages),
   item commits, index create and drop, and Stats.analyze, each in its
   own open and close, some crashed at a random I/O.  After every op a
   fault-free reopen must find no page in two chains, and every table,
   the items and the index catalog at their last acknowledged state, or
   the crashed op's new one. *)
type cow_op = Save of string * int | Commit of int | Index | Analyze

let cow_op_gen =
  QCheck2.Gen.(
    frequency
      [
        ( 4,
          map2
            (fun name rows -> Save (name, rows))
            (oneofl [ "p"; "q" ])
            (oneofl [ 0; 5; 400 ]) );
        (2, map (fun v -> Commit v) (int_range 1 1000));
        (1, return Index);
        (1, return Analyze);
      ])

let cow_rows salt rows =
  R.Relation.of_list
    (R.Schema.make [ ("k", TInt); ("pad", TString) ])
    (List.init rows (fun i -> [ Int i; String (Printf.sprintf "%d-%020d" salt i) ]))

let prop_cow_ownership =
  let def = { Planner.Indexes.table = "p"; attr = "k"; kind = Btree } in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"copy-on-write replaces keep one owner per page"
       QCheck2.Gen.(
         list_size (int_range 1 8) (pair cow_op_gen (opt (int_range 0 30))))
       (fun ops ->
         let path = fresh_path () in
         let session ?crash_after f =
           let eng = Storage.Engine.open_db ~pool_size:4 ?crash_after path in
           match f eng with
           | () -> Storage.Engine.close eng
           | exception e ->
               Storage.Engine.crash eng;
               raise e
         in
         session (fun eng ->
             Storage.Engine.save_table eng "p" (cow_rows 0 5);
             Storage.Engine.save_table eng "q" (cow_rows 0 0));
         (* the acknowledged state *)
         let tables = Hashtbl.create 2 and items = ref 0 and defs = ref [] in
         Hashtbl.replace tables "p" (cow_rows 0 5);
         Hashtbl.replace tables "q" (cow_rows 0 0);
         let ok =
           List.for_all
             (fun (i, (op, crash_after)) ->
               let apply eng =
                 match op with
                 | Save (name, rows) -> Storage.Engine.save_table eng name (cow_rows i rows)
                 | Commit v ->
                     let txn = Storage.Engine.begin_txn eng in
                     Storage.Engine.write eng ~txn "a" v;
                     Storage.Engine.commit eng ~txn
                 | Index ->
                     let idx = Planner.Indexes.load eng in
                     if !defs = [] then Planner.Indexes.create eng idx def
                     else Planner.Indexes.drop eng idx def
                 | Analyze -> ignore (Planner.Stats.analyze eng [ "p"; "q" ] : Planner.Stats.t)
               in
               let acked =
                 match session ?crash_after apply with
                 | () -> true
                 | exception Storage.Fault.Crash _ -> false
               in
               (* the state the op leaves when it lands *)
               let landed_tables = Hashtbl.copy tables in
               let landed_items = ref !items and landed_defs = ref !defs in
               (match op with
               | Save (name, rows) -> Hashtbl.replace landed_tables name (cow_rows i rows)
               | Commit v -> landed_items := v
               | Index -> landed_defs := if !defs = [] then [ def ] else []
               | Analyze -> ());
               let verdict = ref true in
               session (fun eng ->
                   let now_items =
                     Option.value ~default:0 (List.assoc_opt "a" (Storage.Engine.items eng))
                   and now_defs = Planner.Indexes.defs (Planner.Indexes.load eng) in
                   let table_is model name =
                     R.Relation.equal (Storage.Engine.load_table eng name) (Hashtbl.find model name)
                   in
                   let all_tables model = List.for_all (table_is model) [ "p"; "q" ] in
                   let landed =
                     all_tables landed_tables && now_items = !landed_items
                     && now_defs = !landed_defs
                   in
                   let before = all_tables tables && now_items = !items && now_defs = !defs in
                   verdict :=
                     ownership_clash eng = None
                     && (landed || ((not acked) && before))
                     && (op <> Analyze || Planner.Stats.find (Planner.Stats.load eng) "p" <> None
                        || not acked);
                   if landed then begin
                     Hashtbl.reset tables;
                     Hashtbl.iter (Hashtbl.replace tables) landed_tables;
                     items := !landed_items;
                     defs := !landed_defs
                   end);
               !verdict)
             (List.mapi (fun i op -> (i + 1, op)) ops)
         in
         cleanup path;
         ok))

(* --- the fused filter scan ----------------------------------------------- *)

(* Edge values of each type: negative ints, empty and shared-prefix
   strings, both zeros, nan and the infinities, both bools. *)
let edge_values = function
  | TInt -> [ Int 0; Int (-1); Int (-7); Int 3; Int max_int; Int min_int ]
  | TString -> [ String ""; String "a"; String "ab"; String "abc"; String "b"; String "ab\000" ]
  | TFloat ->
      [ Float 0.0; Float (-0.0); Float Float.nan; Float Float.infinity;
        Float Float.neg_infinity; Float 1.5; Float (-2.5) ]
  | TBool -> [ Bool true; Bool false ]

let edge_schema =
  R.Schema.make
    [ ("i", TInt); ("s", TString); ("f", TFloat); ("b", TBool); ("pad", TString) ]

let pick rng l = List.nth l (Support.Rng.int rng (List.length l))

(* Random predicates over [edge_schema]: every comparison, both operand
   orders, attribute pairs, true/false and the connectives.  One leaf in
   eight compares across types, which must raise Type_clash exactly when
   and as Algebra.eval_predicate does. *)
let rec edge_predicate rng depth =
  let attrs = R.Schema.pairs edge_schema in
  let cmp = pick rng [ A.Eq; A.Ne; A.Lt; A.Le; A.Gt; A.Ge ] in
  let const ty =
    let ty = if Support.Rng.int rng 8 = 0 then pick rng [ TInt; TString; TFloat; TBool ] else ty in
    A.Const (pick rng (edge_values ty))
  in
  match Support.Rng.int rng (if depth = 0 then 5 else 8) with
  | 0 | 1 ->
      let a, ty = pick rng attrs in
      A.Cmp (cmp, A.Attr a, const ty)
  | 2 ->
      let a, ty = pick rng attrs in
      A.Cmp (cmp, const ty, A.Attr a)
  | 3 ->
      let a, ty = pick rng attrs in
      let same = List.filter (fun (_, t) -> t = ty || Support.Rng.int rng 8 = 0) attrs in
      A.Cmp (cmp, A.Attr a, A.Attr (fst (pick rng same)))
  | 4 -> if Support.Rng.bool rng then A.True else A.False
  | 5 -> A.And (edge_predicate rng (depth - 1), edge_predicate rng (depth - 1))
  | 6 -> A.Or (edge_predicate rng (depth - 1), edge_predicate rng (depth - 1))
  | _ -> A.Not (edge_predicate rng (depth - 1))

(* A Filter over a full heap scan (fused: tested on the encoded records)
   and over a projection of it (compiled over decoded tuples) both equal
   Eval on multi-page tables of edge values, Type_clash included; the
   scan node counts every record and the filter its survivors. *)
let prop_fused_scan_matches_eval =
  property 60 "fused filter scan = Eval.eval (edge values, multi-page)" seed_gen
    (fun seed ->
      let rng = Support.Rng.create seed in
      let rel =
        R.Relation.of_list edge_schema
          (List.init
             (300 + Support.Rng.int rng 300)
             (fun _ ->
               List.map
                 (fun (a, ty) ->
                   if a = "pad" then String (String.make (Support.Rng.int rng 60) 'p')
                   else pick rng (edge_values ty))
                 (R.Schema.pairs edge_schema)))
      in
      let db = R.Database.add R.Database.empty "t" rel in
      let pred = edge_predicate rng 3 in
      let outcome f = match f () with r -> Ok r | exception Type_clash m -> Error m in
      let expected = outcome (fun () -> R.Eval.eval_unchecked db (A.Select (pred, A.Rel "t"))) in
      let path = fresh_path () in
      let eng = Storage.Engine.open_db path in
      Fun.protect
        ~finally:(fun () ->
          Storage.Engine.close eng;
          cleanup path)
        (fun () ->
          Storage.Engine.save_table eng "t" rel;
          let ctx = Planner.Plan.make eng in
          let fused = forced_scan ctx "t" pred in
          let scan = List.hd (P.children fused) in
          let unfused =
            P.make
              (P.Filter (pred, P.make (P.Project (R.Schema.attributes edge_schema, scan)) edge_schema))
              edge_schema
          in
          let same plan =
            match (expected, outcome (fun () -> Planner.Exec.run ctx plan)) with
            | Ok e, Ok g ->
                R.Relation.equal e g
                && scan.P.meta.P.actual_rows = R.Relation.cardinality rel
                && plan.P.meta.P.actual_rows = R.Relation.cardinality e
            | Error e, Error g -> e = g
            | _ -> false
          in
          chain_pages eng "t" > 1 && same fused && same unfused))

(* A record that fails validation under a valid page CRC makes every
   reader of the chain raise Codec.Corrupt — the fused scan even when
   the predicate would have rejected the record, a plain full scan, the
   fence scan's page read and a table load — and never return an
   answer.  Damaged: the last column's type tag, its string length, the
   arity. *)
let test_malformed_record_raises () =
  let rel =
    R.Relation.of_list
      (R.Schema.make [ ("k", TInt); ("g", TInt); ("pad", TString) ])
      (List.init 600 (fun i -> [ Int i; Int (i mod 5); String (Printf.sprintf "row-%04d" i) ]))
  in
  List.iter
    (fun (what, damage) ->
      let path = fresh_path () in
      let eng = Storage.Engine.open_db path in
      Fun.protect
        ~finally:(fun () ->
          Storage.Engine.close eng;
          cleanup path)
        (fun () ->
          Storage.Engine.save_table eng "t" rel;
          let pool = Storage.Engine.pool eng in
          let first = (catalog_entry eng "t").Heap.first in
          let second = Storage.Buffer_pool.with_page pool first Storage.Page.next in
          (* the first record of the second page, then its damage *)
          let victim = ref None in
          Storage.Buffer_pool.with_page pool second (fun page ->
              Storage.Page.iter_live page (fun ~off ~len:_ ->
                  if !victim = None then begin
                    victim := Some (Int64.to_int (Bytes.get_int64_le page (off + 3)));
                    damage page off
                  end);
              Storage.Buffer_pool.mark_dirty pool second);
          Storage.Buffer_pool.flush_all pool;
          Storage.Buffer_pool.drop_clean pool;
          let k = Option.get !victim in
          let ctx = Planner.Plan.make eng in
          let raises label plan =
            match Planner.Exec.run ctx plan with
            | _ -> Alcotest.failf "%s, %s: returned an answer" what label
            | exception R.Codec.Corrupt _ -> ()
          in
          let g_other =
            A.Select (A.Cmp (A.Eq, A.Attr "g", A.Const (Int ((k + 1) mod 5))), A.Rel "t")
          in
          let plan = Planner.Plan.plan ctx g_other in
          (match plan.P.node with
          | P.Filter (_, { P.node = P.Scan { access = P.Full; _ }; _ }) -> ()
          | _ -> Alcotest.failf "%s: expected a filter over a full scan" what);
          raises "filter rejecting the record" plan;
          raises "full scan" (Planner.Plan.plan ctx (A.Project ([ "pad" ], A.Rel "t")));
          let point = Planner.Plan.plan ctx (A.Select (A.Cmp (A.Eq, A.Attr "k", A.Const (Int k)), A.Rel "t")) in
          Alcotest.(check bool) (what ^ ": point lookup is fenced") true (is_fenced point);
          raises "fence scan" point;
          match Storage.Engine.load_table eng "t" with
          | _ -> Alcotest.failf "%s: load_table returned" what
          | exception R.Codec.Corrupt _ -> ()))
    [
      ("last tag", fun page off -> Bytes.set_uint8 page (off + 20) 7);
      ( "string length",
        fun page off ->
          Bytes.set_uint16_le page (off + 21) (Bytes.get_uint16_le page (off + 21) + 1) );
      ("arity", fun page off -> Bytes.set_uint16_le page off 2);
    ]

let suite =
  [
    Alcotest.test_case "stats collect and persist" `Quick
      test_stats_collect_and_persist;
    Alcotest.test_case "reserved tables hidden" `Quick
      test_reserved_tables_hidden;
    Alcotest.test_case "index catalog roundtrip" `Quick
      test_index_catalog_roundtrip;
    Alcotest.test_case "point lookup chosen" `Quick test_point_lookup_chosen;
    Alcotest.test_case "range scan chosen" `Quick test_range_scan_chosen;
    Alcotest.test_case "full scan without indexes" `Quick
      test_no_index_full_scan;
    Alcotest.test_case "explain json valid" `Quick test_explain_json_valid;
    Alcotest.test_case "executor matches eval (fixed)" `Quick
      test_exec_matches_eval_fixed;
    Alcotest.test_case "executor matches eval (unoptimized)" `Quick
      test_exec_unoptimized_matches;
    Alcotest.test_case "forced join algorithms agree" `Quick
      test_forced_join_algorithms_agree;
    Alcotest.test_case "merge join uses index order" `Quick
      test_merge_join_uses_index_order;
    Alcotest.test_case "sort spill" `Quick test_sort_spill;
    Alcotest.test_case "actuals and counters" `Quick test_actuals_and_counters;
    Alcotest.test_case "multi-page indexes match eval" `Quick
      test_multi_page_indexes;
    Alcotest.test_case "stats one pass unchanged" `Quick
      test_stats_one_pass_unchanged;
    Alcotest.test_case "planning reads no page" `Quick
      test_planning_reads_no_page;
    Alcotest.test_case "join elimination (fixed)" `Quick
      test_join_elimination_fixed;
    Alcotest.test_case "certify (fixed)" `Quick test_certify_fixed;
    Alcotest.test_case "fence crash matrix" `Slow test_fence_crash_matrix;
    Alcotest.test_case "damaged fence page falls back" `Quick
      test_damaged_fence_page;
    Alcotest.test_case "pre-fence catalog entry" `Quick
      test_pre_fence_catalog_entry;
    Alcotest.test_case "one table version per context" `Quick
      test_one_version_per_context;
    Alcotest.test_case "retired pages wait for the next open" `Quick
      test_retired_pages_wait;
    Alcotest.test_case "replace crash matrix on free pages" `Slow
      test_replace_crash_matrix;
    Alcotest.test_case "index create crash matrix on free pages" `Slow
      test_index_create_crash_matrix;
    Alcotest.test_case "malformed record raises" `Quick test_malformed_record_raises;
    prop_physical_matches_eval;
    prop_fused_scan_matches_eval;
    prop_fences_match_eval;
    prop_chain_sorted_and_fenced;
    prop_cow_ownership;
    prop_forced_merge_matches_eval;
    prop_certify_never_refutes;
    prop_semantic_rewrite_preserves_results;
  ]
