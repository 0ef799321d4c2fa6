type access_types = Full | St | Ld

type t = Dmb of access_types | Dsb of access_types | Isb

let access_to_string = function Full -> "full" | St -> "st" | Ld -> "ld"

let to_string = function
  | Dmb a -> "DMB " ^ access_to_string a
  | Dsb a -> "DSB " ^ access_to_string a
  | Isb -> "ISB"

let orders_loads = function
  | Dmb Full | Dsb Full | Dmb Ld | Dsb Ld -> true
  | Dmb St | Dsb St -> false
  | Isb -> false

let orders_stores = function
  | Dmb Full | Dsb Full | Dmb St | Dsb St -> true
  | Dmb Ld | Dsb Ld -> false
  | Isb -> false
