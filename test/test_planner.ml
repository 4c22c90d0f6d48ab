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
    prop_physical_matches_eval;
    prop_forced_merge_matches_eval;
    prop_certify_never_refutes;
    prop_semantic_rewrite_preserves_results;
  ]
