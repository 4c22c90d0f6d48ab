(* Tests for the access-method library (B+tree, extendible hashing) and
   the nested relational model. *)

module R = Relational
module B = Access.Btree
module H = Access.Hash_index
module N = Nested
open R.Value

let check_inv msg = function
  | Ok () -> ()
  | Error e -> Alcotest.fail (msg ^ ": " ^ e)

(* --- btree ------------------------------------------------------------------ *)

let test_btree_basic () =
  let t = B.create ~order:4 () in
  List.iter (fun k -> B.insert t (Int k) (k * 10)) [ 5; 1; 9; 3; 7; 2; 8; 4; 6 ];
  Alcotest.(check (list int)) "find 7" [ 70 ] (B.find t (Int 7));
  Alcotest.(check (list int)) "find missing" [] (B.find t (Int 42));
  Alcotest.(check int) "cardinality" 9 (B.cardinality t);
  check_inv "after inserts" (B.check_invariants t)

let test_btree_duplicates () =
  let t = B.create () in
  B.insert t (Int 1) "a";
  B.insert t (Int 1) "b";
  Alcotest.(check (list string)) "payloads in order" [ "a"; "b" ] (B.find t (Int 1))

let test_btree_range () =
  let t = B.of_list (List.init 50 (fun k -> (Int k, k))) in
  let hits = B.range t ~lo:(Int 10) ~hi:(Int 19) in
  Alcotest.(check int) "ten keys" 10 (List.length hits);
  Alcotest.(check bool) "sorted" true
    (List.for_all2
       (fun (k, _) expected -> R.Value.equal k (Int expected))
       hits
       (List.init 10 (fun i -> 10 + i)))

let test_btree_range_empty_and_edges () =
  let t = B.of_list (List.init 10 (fun k -> (Int (2 * k), k))) in
  Alcotest.(check int) "gap range" 0
    (List.length (B.range t ~lo:(Int 1) ~hi:(Int 1)));
  Alcotest.(check int) "full range" 10
    (List.length (B.range t ~lo:(Int 0) ~hi:(Int 100)));
  Alcotest.(check int) "below everything" 0
    (List.length (B.range t ~lo:(Int (-10)) ~hi:(Int (-1))))

let test_btree_delete_lazy () =
  let t = B.of_list (List.init 30 (fun k -> (Int k, k))) in
  Alcotest.(check bool) "delete hits" true (B.delete t (Int 13));
  Alcotest.(check bool) "gone" false (B.mem t (Int 13));
  Alcotest.(check bool) "second delete misses" false (B.delete t (Int 13));
  Alcotest.(check int) "one fewer key" 29 (B.cardinality t);
  check_inv "lazy deletion keeps structure" (B.check_invariants t)

let test_btree_height_grows_logarithmically () =
  let t = B.of_list (List.init 500 (fun k -> (Int k, k))) in
  Alcotest.(check bool)
    (Printf.sprintf "height %d within bounds" (B.height t))
    true
    (B.height t >= 3 && B.height t <= 6);
  check_inv "big tree" (B.check_invariants t)

let test_btree_type_clash () =
  let t = B.create () in
  B.insert t (Int 1) 0;
  Alcotest.(check bool) "string key rejected" true
    (match B.insert t (String "x") 0 with
    | () -> false
    | exception B.Key_type_clash _ -> true);
  Alcotest.(check bool) "bulk load rejects mixed keys" true
    (match B.of_list [ (Int 1, 0); (Int 2, 1); (String "x", 2) ] with
    | _ -> false
    | exception B.Key_type_clash _ -> true)

let test_btree_index_relation () =
  let index = B.index_relation Fixtures.enrolled "grade" in
  let hits =
    B.select_range index Fixtures.enrolled ~lo:(Int 85) ~hi:(Int 100)
  in
  let scan =
    R.Relation.select
      (fun tup ->
        match tup.(2) with Int g -> g >= 85 && g <= 100 | _ -> false)
      Fixtures.enrolled
  in
  Alcotest.check Fixtures.relation_testable "index = scan" scan hits

(* One insert per pair, with a random delete after a quarter of them,
   against a reference map; and a second tree bulk-loaded by [of_list]
   from the same pairs, with no deletions, against a map of every pair.
   Orders 3-8, 0-300 pairs, a third of the sizes exact multiples of the
   order; keys either a permutation (all distinct) or drawn from 60
   values (many duplicates). *)
let prop_btree_matches_map =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"btree agrees with a reference map"
       (QCheck2.Gen.int_range 0 1_000_000)
       (fun seed ->
         let rng = Support.Rng.create seed in
         let order = 3 + Support.Rng.int rng 6 in
         let size =
           if Support.Rng.int rng 3 = 0 then
             order * Support.Rng.int rng ((300 / order) + 1)
           else Support.Rng.int rng 301
         in
         let domain = if Support.Rng.bool rng then size else 60 in
         let keys =
           if domain = size then begin
             let a = Array.init size Fun.id in
             Support.Rng.shuffle rng a;
             a
           end
           else Array.init size (fun _ -> Support.Rng.int rng domain)
         in
         let pairs = List.init size (fun i -> (Int keys.(i), i)) in
         let add tbl k p =
           Hashtbl.replace tbl k
             ((match Hashtbl.find_opt tbl k with Some ps -> ps | None -> [])
             @ [ p ])
         in
         let lookup tbl k =
           match Hashtbl.find_opt tbl k with Some ps -> ps | None -> []
         in
         let t = B.create ~order () in
         let reference = Hashtbl.create 32 in
         List.iteri
           (fun i (key, p) ->
             B.insert t key p;
             add reference keys.(i) p;
             if Support.Rng.int rng 4 = 0 then begin
               let k = Support.Rng.int rng domain in
               ignore (B.delete t (Int k));
               Hashtbl.remove reference k
             end)
           pairs;
         let bulk = B.of_list ~order pairs in
         let every = Hashtbl.create 32 in
         Array.iteri (fun i k -> add every k i) keys;
         let in_order =
           List.sort_uniq Int.compare (Array.to_list keys)
           |> List.map (fun k -> (Int k, lookup every k))
         in
         B.check_invariants t = Ok ()
         && B.check_invariants bulk = Ok ()
         && List.for_all
              (fun k ->
                B.find t (Int k) = lookup reference k
                && B.find bulk (Int k) = lookup every k)
              (List.init (domain + 1) Fun.id)
         && List.rev (B.fold_range (fun k ps acc -> (k, ps) :: acc) bulk [])
            = in_order))

let prop_btree_iter_sorted =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"btree iteration is sorted"
       (QCheck2.Gen.int_range 0 1_000_000)
       (fun seed ->
         let rng = Support.Rng.create seed in
         let t = B.create ~order:4 () in
         for _ = 1 to 100 do
           B.insert t (Int (Support.Rng.int rng 1000)) ()
         done;
         let keys = ref [] in
         B.iter (fun k _ -> keys := k :: !keys) t;
         let keys = List.rev !keys in
         let rec sorted = function
           | [] | [ _ ] -> true
           | a :: (b :: _ as rest) -> R.Value.compare a b < 0 && sorted rest
         in
         sorted keys))

(* --- extendible hashing --------------------------------------------------------- *)

let test_hash_basic () =
  let h = H.create ~bucket_capacity:2 () in
  List.iter (fun k -> H.insert h (Int k) (k * 10)) (List.init 40 Fun.id);
  Alcotest.(check (list int)) "find" [ 130 ] (H.find h (Int 13));
  Alcotest.(check (list int)) "missing" [] (H.find h (Int 400));
  Alcotest.(check int) "cardinality" 40 (H.cardinality h);
  Alcotest.(check bool) "directory grew" true (H.global_depth h > 0);
  check_inv "after inserts" (H.check_invariants h)

let test_hash_duplicates_and_delete () =
  let h = H.create () in
  H.insert h (String "k") 1;
  H.insert h (String "k") 2;
  Alcotest.(check (list int)) "accumulates" [ 1; 2 ] (H.find h (String "k"));
  Alcotest.(check bool) "delete" true (H.delete h (String "k"));
  Alcotest.(check bool) "gone" false (H.mem h (String "k"))

let test_hash_directory_power_of_two () =
  let h = H.create ~bucket_capacity:1 () in
  List.iter (fun k -> H.insert h (Int k) k) (List.init 64 Fun.id);
  Alcotest.(check int) "2^depth" (1 lsl H.global_depth h) (H.directory_size h);
  Alcotest.(check bool) "buckets <= directory" true
    (H.bucket_count h <= H.directory_size h);
  check_inv "invariants" (H.check_invariants h)

let prop_hash_matches_map =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"hash index agrees with a reference map"
       (QCheck2.Gen.int_range 0 1_000_000)
       (fun seed ->
         let rng = Support.Rng.create seed in
         let h = H.create ~bucket_capacity:(1 + Support.Rng.int rng 4) () in
         let reference = Hashtbl.create 32 in
         for _ = 1 to 200 do
           let k = Support.Rng.int rng 80 in
           if Support.Rng.int rng 4 = 0 then begin
             ignore (H.delete h (Int k));
             Hashtbl.remove reference k
           end
           else begin
             H.insert h (Int k) k;
             Hashtbl.replace reference k
               ((match Hashtbl.find_opt reference k with
                | Some ps -> ps
                | None -> [])
               @ [ k ])
           end
         done;
         H.check_invariants h = Ok ()
         && List.for_all
              (fun k ->
                H.find h (Int k)
                = (match Hashtbl.find_opt reference k with
                  | Some ps -> ps
                  | None -> []))
              (List.init 80 Fun.id)))

(* --- nested relations -------------------------------------------------------------- *)

let flat_courses =
  N.of_flat
    (R.Relation.of_list
       (R.Schema.make [ ("student", TString); ("course", TString) ])
       [
         [ String "ada"; String "db" ];
         [ String "ada"; String "logic" ];
         [ String "bob"; String "db" ];
       ])

let test_nest_groups () =
  let nested = N.nest flat_courses ~into:"courses" [ "course" ] in
  Alcotest.(check int) "two students" 2 (N.cardinality nested);
  Alcotest.(check int) "depth 2" 2 (N.depth (N.schema nested));
  (* ada has two courses *)
  let ada_row =
    List.find
      (fun tup -> tup.(0) = N.V (String "ada"))
      (N.tuples nested)
  in
  (match ada_row.(1) with
  | N.R inner -> Alcotest.(check int) "ada's courses" 2 (N.cardinality inner)
  | N.V _ -> Alcotest.fail "expected nested relation")

let test_unnest_inverts_nest () =
  let nested = N.nest flat_courses ~into:"courses" [ "course" ] in
  let back = N.unnest nested "courses" in
  Alcotest.(check bool) "unnest . nest = id" true (N.equal back flat_courses)

let test_nest_after_unnest_needs_pnf () =
  (* a non-PNF nested relation: same atomic key with different sets *)
  let inner_schema = [ ("c", N.Atom TString) ] in
  let inner values =
    N.create inner_schema
      (List.map (fun v -> [| N.V (String v) |]) values)
  in
  let non_pnf =
    N.create
      [ ("s", N.Atom TString); ("cs", N.Set inner_schema) ]
      [
        [| N.V (String "ada"); N.R (inner [ "db" ]) |];
        [| N.V (String "ada"); N.R (inner [ "logic" ]) |];
      ]
  in
  Alcotest.(check bool) "not PNF" false (N.is_pnf non_pnf);
  let roundtrip = N.nest (N.unnest non_pnf "cs") ~into:"cs" [ "c" ] in
  (* the two rows collapse into one: information is lost *)
  Alcotest.(check int) "rows merged" 1 (N.cardinality roundtrip);
  Alcotest.(check bool) "roundtrip differs" false (N.equal roundtrip non_pnf);
  (* whereas a PNF relation survives *)
  let pnf = N.nest flat_courses ~into:"cs" [ "course" ] in
  Alcotest.(check bool) "PNF holds" true (N.is_pnf pnf);
  let rt = N.nest (N.unnest pnf "cs") ~into:"cs" [ "course" ] in
  Alcotest.(check bool) "PNF roundtrip exact" true (N.equal rt pnf)

let test_unnest_drops_empty_sets () =
  let inner_schema = [ ("c", N.Atom TString) ] in
  let with_empty =
    N.create
      [ ("s", N.Atom TString); ("cs", N.Set inner_schema) ]
      [ [| N.V (String "eve"); N.R (N.create inner_schema []) |] ]
  in
  let flat = N.unnest with_empty "cs" in
  Alcotest.(check int) "eve disappears" 0 (N.cardinality flat)

let test_flatten_deep () =
  let nested = N.nest flat_courses ~into:"cs" [ "course" ] in
  let deeper = N.nest nested ~into:"block" [ "cs" ] in
  Alcotest.(check int) "depth 3" 3 (N.depth (N.schema deeper));
  let flat = N.flatten deeper in
  Alcotest.(check int) "flat depth 1" 1 (N.depth (N.schema flat));
  Alcotest.(check bool) "flatten recovers the original" true
    (N.equal flat flat_courses)

let test_nested_type_checks () =
  Alcotest.(check bool) "bad atom type" true
    (match
       N.create [ ("a", N.Atom TInt) ] [ [| N.V (String "x") |] ]
     with
    | _ -> false
    | exception N.Nested_error _ -> true);
  Alcotest.(check bool) "relation where atom expected" true
    (match
       N.create
         [ ("a", N.Atom TInt) ]
         [ [| N.R (N.create [ ("b", N.Atom TInt) ] []) |] ]
     with
    | _ -> false
    | exception N.Nested_error _ -> true)

let test_nest_errors () =
  Alcotest.(check bool) "unknown attribute" true
    (match N.nest flat_courses ~into:"x" [ "nope" ] with
    | _ -> false
    | exception N.Nested_error _ -> true);
  Alcotest.(check bool) "empty fold" true
    (match N.nest flat_courses ~into:"x" [] with
    | _ -> false
    | exception N.Nested_error _ -> true);
  Alcotest.(check bool) "name clash" true
    (match N.nest flat_courses ~into:"student" [ "course" ] with
    | _ -> false
    | exception N.Nested_error _ -> true)

let prop_unnest_nest_identity =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:50 ~name:"unnest . nest = id on random flat relations"
       (QCheck2.Gen.int_range 0 1_000_000)
       (fun seed ->
         let rng = Support.Rng.create seed in
         let schema =
           R.Schema.make [ ("a", TInt); ("b", TInt); ("c", TInt) ]
         in
         let rel = R.Generator.random_relation rng schema ~size:12 ~domain:4 in
         let flat = N.of_flat rel in
         let nested = N.nest flat ~into:"g" [ "c" ] in
         N.is_pnf nested
         && N.equal (N.unnest nested "g") flat
         && N.equal (N.nest (N.unnest nested "g") ~into:"g" [ "c" ]) nested))

let prop_nest_not_commutative_in_general =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:30
       ~name:"nest_b . nest_c and nest_c . nest_b differ in schema"
       (QCheck2.Gen.int_range 0 1_000_000)
       (fun seed ->
         let rng = Support.Rng.create seed in
         let schema = R.Schema.make [ ("a", TInt); ("b", TInt); ("c", TInt) ] in
         let rel = R.Generator.random_relation rng schema ~size:8 ~domain:3 in
         let flat = N.of_flat rel in
         let bc = N.nest (N.nest flat ~into:"gb" [ "b" ]) ~into:"gc" [ "c" ] in
         let cb = N.nest (N.nest flat ~into:"gc" [ "c" ]) ~into:"gb" [ "b" ] in
         (* the two orders produce structurally different schemas *)
         N.schema bc <> N.schema cb))

let suite =
  [
    Alcotest.test_case "btree basic" `Quick test_btree_basic;
    Alcotest.test_case "btree duplicates" `Quick test_btree_duplicates;
    Alcotest.test_case "btree range" `Quick test_btree_range;
    Alcotest.test_case "btree range edges" `Quick test_btree_range_empty_and_edges;
    Alcotest.test_case "btree lazy delete" `Quick test_btree_delete_lazy;
    Alcotest.test_case "btree height" `Quick test_btree_height_grows_logarithmically;
    Alcotest.test_case "btree type clash" `Quick test_btree_type_clash;
    Alcotest.test_case "btree secondary index" `Quick test_btree_index_relation;
    prop_btree_matches_map;
    prop_btree_iter_sorted;
    Alcotest.test_case "hash basic" `Quick test_hash_basic;
    Alcotest.test_case "hash duplicates/delete" `Quick test_hash_duplicates_and_delete;
    Alcotest.test_case "hash directory 2^d" `Quick test_hash_directory_power_of_two;
    prop_hash_matches_map;
    Alcotest.test_case "nest groups" `Quick test_nest_groups;
    Alcotest.test_case "unnest inverts nest" `Quick test_unnest_inverts_nest;
    Alcotest.test_case "nest/unnest needs PNF" `Quick test_nest_after_unnest_needs_pnf;
    Alcotest.test_case "unnest drops empty sets" `Quick test_unnest_drops_empty_sets;
    Alcotest.test_case "flatten deep" `Quick test_flatten_deep;
    Alcotest.test_case "nested type checks" `Quick test_nested_type_checks;
    Alcotest.test_case "nest errors" `Quick test_nest_errors;
    prop_unnest_nest_identity;
    prop_nest_not_commutative_in_general;
  ]
