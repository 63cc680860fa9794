module Arena = Ff_pmem.Arena

type t = { node_words : int; capacity : int }

let header_words = 8

let off_level = 0
let off_sibling = 1
let off_switch = 2
let off_leftmost = 3
let off_count = 4
let off_low = 5

let make ~node_bytes =
  if node_bytes < 128 || node_bytes land (node_bytes - 1) <> 0 then
    invalid_arg "Layout.make: node_bytes must be a power of two >= 128";
  let node_words = node_bytes / 8 in
  { node_words; capacity = (node_words - header_words) / 2 }

let key_off i = header_words + (2 * i)
let ptr_off i = header_words + (2 * i) + 1

type node = int

let level a n = Arena.read a (n + off_level)
let sibling a n = Arena.read a (n + off_sibling)
let switch a n = Arena.read a (n + off_switch)
let leftmost a n = Arena.read a (n + off_leftmost)
let count_hint a n = Arena.read a (n + off_count)
let low a n = Arena.read a (n + off_low)
let key a n i = Arena.read a (n + key_off i)
let ptr a n i = Arena.read a (n + ptr_off i)

let set_level a n v = Arena.write a (n + off_level) v
let set_sibling a n v = Arena.write a (n + off_sibling) v
let set_switch a n v = Arena.write a (n + off_switch) v
let set_leftmost a n v = Arena.write a (n + off_leftmost) v
let set_count_hint a n v = Arena.write a (n + off_count) v
let set_low a n v = Arena.write a (n + off_low) v
let set_key a n i v = Arena.write a (n + key_off i) v
let set_ptr a n i v = Arena.write a (n + ptr_off i) v

let is_leaf a n = level a n = 0

let left_ptr_of a n i = if i = 0 then leftmost a n else ptr a n (i - 1)
