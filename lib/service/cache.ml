(* Classic hash-table + doubly-linked-list LRU.  The list is intrusive
   and sentinel-free: [head] is the most recently used node, [tail] the
   eviction candidate. *)

type 'a node = {
  nkey : string;
  mutable value : 'a;
  mutable prev : 'a node option;  (* towards head / more recent *)
  mutable next : 'a node option;  (* towards tail / less recent *)
}

type 'a t = {
  capacity : int;
  table : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;
  mutable tail : 'a node option;
}

let create ~cap =
  if cap < 1 then invalid_arg "Cache.create: cap must be >= 1";
  { capacity = cap; table = Hashtbl.create (2 * cap); head = None; tail = None }

let size t = Hashtbl.length t.table

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let is_head t n = match t.head with Some h -> h == n | None -> false

let find t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some n ->
    if not (is_head t n) then begin
      unlink t n;
      push_front t n
    end;
    Some n.value

let mem t k = Hashtbl.mem t.table k

let put t k v =
  match Hashtbl.find_opt t.table k with
  | Some n ->
    n.value <- v;
    if not (is_head t n) then begin
      unlink t n;
      push_front t n
    end
  | None ->
    if Hashtbl.length t.table >= t.capacity then (
      match t.tail with
      | Some victim ->
        unlink t victim;
        Hashtbl.remove t.table victim.nkey
      | None -> ());
    let n = { nkey = k; value = v; prev = None; next = None } in
    Hashtbl.add t.table k n;
    push_front t n

let keys_mru t =
  let rec go acc = function
    | None -> List.rev acc
    | Some n -> go (n.nkey :: acc) n.next
  in
  go [] t.head
