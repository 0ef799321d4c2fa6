type protect =
  | With_ticket of Ticket_lock.t
  | With_dsmsynch of Dsmsynch.t
  | With_ffwd of Ffwd.t * int

let exec p f =
  match p with
  | With_ticket l -> Ticket_lock.with_lock l f
  | With_dsmsynch d -> Dsmsynch.exec d f
  | With_ffwd (s, client) -> Ffwd.request s ~client f

module Queue_d = struct
  type t = int Queue.t

  let create () = Queue.create ()

  let enqueue t p v =
    ignore
      (exec p (fun () ->
           Queue.push v t;
           0))

  let dequeue t p =
    let r = exec p (fun () -> match Queue.take_opt t with Some v -> v | None -> min_int) in
    if r = min_int then None else Some r

  let length t p = exec p (fun () -> Queue.length t)
end

module Stack_d = struct
  type t = int Stack.t

  let create () = Stack.create ()

  let push t p v =
    ignore
      (exec p (fun () ->
           Stack.push v t;
           0))

  let pop t p =
    let r = exec p (fun () -> match Stack.pop_opt t with Some v -> v | None -> min_int) in
    if r = min_int then None else Some r
end

module Sorted_list_d = struct
  (* Plain mutable singly-linked sorted list, as in the paper's
     Synchrobench-derived benchmark. *)
  type node = { key : int; mutable next : node option }

  type t = { mutable head : node option; mutable size : int }

  let create () = { head = None; size = 0 }

  (* Returns (predecessor option, first node with key >= k). *)
  let locate t k =
    let rec go prev cur =
      match cur with
      | Some n when n.key < k -> go cur n.next
      | _ -> (prev, cur)
    in
    go None t.head

  let mem t p k =
    exec p (fun () ->
        match locate t k with _, Some n when n.key = k -> 1 | _ -> 0)
    = 1

  let insert t p k =
    exec p (fun () ->
        match locate t k with
        | _, Some n when n.key = k -> 0
        | prev, cur ->
          let node = { key = k; next = cur } in
          (match prev with None -> t.head <- Some node | Some pn -> pn.next <- Some node);
          t.size <- t.size + 1;
          1)
    = 1

  let remove t p k =
    exec p (fun () ->
        match locate t k with
        | prev, Some n when n.key = k ->
          (match prev with None -> t.head <- n.next | Some pn -> pn.next <- n.next);
          t.size <- t.size - 1;
          1
        | _ -> 0)
    = 1

  let length t p = exec p (fun () -> t.size)
end

module Hash_d = struct
  type t = { buckets : Sorted_list_d.t array; protects : protect array }

  let create ~buckets ~protects =
    if buckets <= 0 then invalid_arg "Hash_d.create: buckets";
    if Array.length protects <> buckets then
      invalid_arg "Hash_d.create: one protect per bucket required";
    { buckets = Array.init buckets (fun _ -> Sorted_list_d.create ()); protects }

  let slot t k =
    let b = k mod Array.length t.buckets in
    let b = if b < 0 then b + Array.length t.buckets else b in
    (t.buckets.(b), t.protects.(b))

  let mem t k =
    let l, p = slot t k in
    Sorted_list_d.mem l p k

  let insert t k =
    let l, p = slot t k in
    Sorted_list_d.insert l p k

  let remove t k =
    let l, p = slot t k in
    Sorted_list_d.remove l p k

  let length t =
    Array.to_list t.buckets
    |> List.mapi (fun i l -> Sorted_list_d.length l t.protects.(i))
    |> List.fold_left ( + ) 0
end
