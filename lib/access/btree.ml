module V = Relational.Value

exception Key_type_clash of string

type 'p leaf = {
  mutable items : (V.t * 'p list) list;  (* sorted by key *)
  mutable next : 'p leaf option;
}

type 'p node = Leaf of 'p leaf | Node of 'p internal
and 'p internal = { mutable keys : V.t list; mutable kids : 'p node list }

type 'p t = {
  order : int;
  mutable root : 'p node;
  mutable key_type : V.ty option;
  mutable deletions : bool;
}

let create ?(order = 8) () =
  let order = max 3 order in
  { order; root = Leaf { items = []; next = None }; key_type = None; deletions = false }

let check_key t key =
  let ty = V.type_of key in
  match t.key_type with
  | None -> t.key_type <- Some ty
  | Some ty' ->
      if ty <> ty' then
        raise
          (Key_type_clash
             (Printf.sprintf "tree keys are %s, got %s" (V.ty_to_string ty')
                (V.ty_to_string ty)))

(* insert into a sorted assoc list, appending to an existing payload list *)
let rec insert_sorted key payload = function
  | [] -> [ (key, [ payload ]) ]
  | (k, ps) :: rest ->
      let c = V.compare key k in
      if c = 0 then (k, ps @ [ payload ]) :: rest
      else if c < 0 then (key, [ payload ]) :: (k, ps) :: rest
      else (k, ps) :: insert_sorted key payload rest

let split_list xs =
  let n = List.length xs in
  let rec take k = function
    | [] -> ([], [])
    | x :: rest ->
        if k = 0 then ([], x :: rest)
        else begin
          let l, r = take (k - 1) rest in
          (x :: l, r)
        end
  in
  take (n / 2) xs

(* returns Some (separator, right sibling) when the child split *)
let rec insert_node t node key payload =
  match node with
  | Leaf leaf ->
      leaf.items <- insert_sorted key payload leaf.items;
      if List.length leaf.items > t.order then begin
        let left_items, right_items = split_list leaf.items in
        let right = { items = right_items; next = leaf.next } in
        leaf.items <- left_items;
        leaf.next <- Some right;
        match right_items with
        | (sep, _) :: _ -> Some (sep, Leaf right)
        | [] -> assert false
      end
      else None
  | Node inner ->
      (* find the child to descend into *)
      let rec pick keys kids before_keys before_kids =
        match (keys, kids) with
        | [], [ last ] -> (last, List.rev before_keys, List.rev before_kids, [], [])
        | k :: krest, child :: crest ->
            if V.compare key k < 0 then
              (child, List.rev before_keys, List.rev before_kids, keys, crest)
            else pick krest crest (k :: before_keys) (child :: before_kids)
        | _ -> assert false
      in
      let child, keys_before, kids_before, keys_after, kids_after =
        pick inner.keys inner.kids [] []
      in
      (match insert_node t child key payload with
      | None -> ()
      | Some (sep, right) ->
          inner.keys <- keys_before @ [ sep ] @ keys_after;
          inner.kids <- kids_before @ [ child; right ] @ kids_after);
      if List.length inner.keys > t.order then begin
        let left_keys, right_keys_with_sep = split_list inner.keys in
        match right_keys_with_sep with
        | sep :: right_keys ->
            let left_kids, right_kids =
              let rec take k = function
                | xs when k = 0 -> ([], xs)
                | x :: rest ->
                    let l, r = take (k - 1) rest in
                    (x :: l, r)
                | [] -> ([], [])
              in
              take (List.length left_keys + 1) inner.kids
            in
            let right = Node { keys = right_keys; kids = right_kids } in
            inner.keys <- left_keys;
            inner.kids <- left_kids;
            Some (sep, right)
        | [] -> assert false
      end
      else None

let insert t key payload =
  check_key t key;
  match insert_node t t.root key payload with
  | None -> ()
  | Some (sep, right) ->
      t.root <- Node { keys = [ sep ]; kids = [ t.root; right ] }

let rec find_leaf node key =
  match node with
  | Leaf leaf -> leaf
  | Node inner ->
      let rec pick keys kids =
        match (keys, kids) with
        | [], [ last ] -> find_leaf last key
        | k :: krest, child :: crest ->
            if V.compare key k < 0 then find_leaf child key
            else pick krest crest
        | _ -> assert false
      in
      pick inner.keys inner.kids

let find t key =
  match t.key_type with
  | None -> []
  | Some ty when ty <> V.type_of key -> []
  | Some _ ->
      let leaf = find_leaf t.root key in
      (match List.assoc_opt key leaf.items with
      | Some ps -> ps
      | None -> (
          (* assoc uses structural equality; fall back to comparison *)
          match
            List.find_opt (fun (k, _) -> V.compare k key = 0) leaf.items
          with
          | Some (_, ps) -> ps
          | None -> []))

let mem t key = find t key <> []

let delete t key =
  match t.key_type with
  | None -> false
  | Some ty when ty <> V.type_of key -> false
  | Some _ ->
      let leaf = find_leaf t.root key in
      let before = List.length leaf.items in
      leaf.items <- List.filter (fun (k, _) -> V.compare k key <> 0) leaf.items;
      let removed = List.length leaf.items < before in
      if removed then t.deletions <- true;
      removed

let range t ~lo ~hi =
  match t.key_type with
  | None -> []
  | Some _ ->
      let rec walk leaf acc =
        let in_range, past =
          List.fold_left
            (fun (acc, past) (k, ps) ->
              if V.compare k lo < 0 then (acc, past)
              else if V.compare k hi > 0 then (acc, true)
              else ((k, ps) :: acc, past))
            (acc, false) leaf.items
        in
        if past then in_range
        else
          match leaf.next with
          | Some next -> walk next in_range
          | None -> in_range
      in
      List.rev (walk (find_leaf t.root lo) [])

let rec leftmost_leaf = function
  | Leaf l -> l
  | Node n -> leftmost_leaf (List.hd n.kids)

let fold_range ?lo ?hi f t init =
  match t.key_type with
  | None -> init
  | Some _ ->
      let start =
        match lo with
        | Some key -> find_leaf t.root key
        | None -> leftmost_leaf t.root
      in
      let rec walk leaf acc =
        let acc, past =
          List.fold_left
            (fun (acc, past) (k, ps) ->
              if past then (acc, past)
              else if (match lo with Some l -> V.compare k l < 0 | None -> false)
              then (acc, false)
              else if (match hi with Some h -> V.compare k h > 0 | None -> false)
              then (acc, true)
              else (f k ps acc, false))
            (acc, false) leaf.items
        in
        if past then acc
        else match leaf.next with Some next -> walk next acc | None -> acc
      in
      walk start init

let iter f t =
  let leftmost = leftmost_leaf in
  let rec walk leaf =
    List.iter (fun (k, ps) -> f k ps) leaf.items;
    match leaf.next with Some next -> walk next | None -> ()
  in
  walk (leftmost t.root)

let cardinality t =
  let count = ref 0 in
  iter (fun _ _ -> incr count) t;
  !count

let height t =
  let rec go = function Leaf _ -> 1 | Node n -> 1 + go (List.hd n.kids) in
  go t.root

(* Sizes of the runs a level of [n] entries is cut into: [cap] each, and
   when the last run would hold fewer than [min], it and the one before
   share their entries evenly (both then hold at least [min]). *)
let run_sizes ~cap ~min n =
  let k = (n + cap - 1) / cap in
  let sizes = Array.make k cap in
  if k > 0 then sizes.(k - 1) <- n - (cap * (k - 1));
  if k >= 2 && sizes.(k - 1) < min then begin
    let both = sizes.(k - 2) + sizes.(k - 1) in
    sizes.(k - 2) <- (both + 1) / 2;
    sizes.(k - 1) <- both / 2
  end;
  sizes

(* Cut [a] into runs of the given sizes, applying [f] to each slice. *)
let slices sizes a f =
  let start = ref 0 in
  Array.map
    (fun len ->
      let slice = Array.sub a !start len in
      start := !start + len;
      f slice)
    sizes

(* Bulk load: one stable sort, equal keys grouped with their payloads in
   input order (what repeated inserts leave), leaves filled to the order
   and linked, then each internal level built bottom-up from the level
   below, each node separating its children by their smallest keys. *)
let of_list ?order entries =
  let t = create ?order () in
  List.iter (fun (k, _) -> check_key t k) entries;
  let sorted = Array.of_list entries in
  Array.stable_sort (fun (a, _) (b, _) -> V.compare a b) sorted;
  (* scan backwards, so each group's payloads come out in input order
     with no reversal; a group keeps its first key, as [insert] does *)
  let groups = ref [] and i = ref (Array.length sorted) in
  while !i > 0 do
    let last = fst sorted.(!i - 1) in
    let s = ref (!i - 1) in
    let ps = ref [ snd sorted.(!s) ] in
    while !s > 0 && V.compare (fst sorted.(!s - 1)) last = 0 do
      decr s;
      ps := snd sorted.(!s) :: !ps
    done;
    groups := (fst sorted.(!s), !ps) :: !groups;
    i := !s
  done;
  let groups = Array.of_list !groups in
  if Array.length groups > 0 then begin
    let leaves =
      slices
        (run_sizes ~cap:t.order ~min:(t.order / 2) (Array.length groups))
        groups
        (fun items -> { items = Array.to_list items; next = None })
    in
    Array.iteri
      (fun i leaf ->
        if i + 1 < Array.length leaves then leaf.next <- Some leaves.(i + 1))
      leaves;
    (* each node with the smallest key of its subtree *)
    let rec build level =
      if Array.length level = 1 then fst level.(0)
      else
        let cap = t.order + 1 in
        build
          (slices
             (run_sizes ~cap ~min:((cap + 1) / 2) (Array.length level))
             level
             (fun kids ->
               ( Node
                   {
                     keys = List.tl (Array.to_list (Array.map snd kids));
                     kids = Array.to_list (Array.map fst kids);
                   },
                 snd kids.(0) )))
    in
    t.root <-
      build (Array.map (fun leaf -> (Leaf leaf, fst (List.hd leaf.items))) leaves)
  end;
  t

let check_invariants t =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rec sorted = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> V.compare a b < 0 && sorted rest
  in
  let min_keys = t.order / 2 in
  let rec depth = function Leaf _ -> 1 | Node n -> 1 + depth (List.hd n.kids) in
  let expected_depth = depth t.root in
  let rec go node level ~is_root ~lo ~hi =
    let bound_ok k =
      (match lo with Some l -> V.compare l k <= 0 | None -> true)
      && match hi with Some h -> V.compare k h < 0 | None -> true
    in
    match node with
    | Leaf leaf ->
        if level <> expected_depth then fail "leaf at depth %d, expected %d" level expected_depth
        else if not (sorted (List.map fst leaf.items)) then fail "unsorted leaf"
        else if List.exists (fun (k, _) -> not (bound_ok k)) leaf.items then
          fail "leaf key out of separator bounds"
        else if
          (not is_root) && (not t.deletions)
          && List.length leaf.items < min_keys
        then fail "leaf underflow (%d items)" (List.length leaf.items)
        else Ok ()
    | Node inner ->
        if List.length inner.kids <> List.length inner.keys + 1 then
          fail "node with %d keys and %d kids" (List.length inner.keys)
            (List.length inner.kids)
        else if not (sorted inner.keys) then fail "unsorted separators"
        else if List.exists (fun k -> not (bound_ok k)) inner.keys then
          fail "separator out of bounds"
        else begin
          let bounds =
            let keys = Array.of_list inner.keys in
            List.mapi
              (fun i _ ->
                ( (if i = 0 then lo else Some keys.(i - 1)),
                  if i = Array.length keys then hi else Some keys.(i) ))
              inner.kids
          in
          List.fold_left2
            (fun acc child (clo, chi) ->
              match acc with
              | Error _ -> acc
              | Ok () -> go child (level + 1) ~is_root:false ~lo:clo ~hi:chi)
            (Ok ()) inner.kids bounds
        end
  in
  go t.root 1 ~is_root:true ~lo:None ~hi:None

module R = Relational

let index_relation ?order rel attr =
  let pos = R.Schema.index_of (R.Relation.schema rel) attr in
  of_list ?order (List.map (fun tup -> (tup.(pos), tup)) (R.Relation.to_list rel))

let select_range index rel ~lo ~hi =
  let schema = R.Relation.schema rel in
  let tuples = List.concat_map snd (range index ~lo ~hi) in
  R.Relation.of_tuples schema tuples
