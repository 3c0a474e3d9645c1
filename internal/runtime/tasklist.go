package runtime

// taskList is a FIFO list of task IDs threaded through a graph's
// nodeSlab: the STF reader and commuter sets of a data handle. Head and
// tail are slab indices, 0 meaning none, so the zero value is empty.
type taskList struct{ head, tail int32 }

// listNode is one list entry: a task ID and the slab index of the next
// entry.
type listNode struct{ task, next int32 }

// nodeChunk is the number of listNodes per slab chunk (8 KiB).
const nodeChunk = 1024

// nodeSlab hands out listNodes from fixed-size chunks that are never
// grown or moved. A list that is cleared is spliced onto the free list
// in O(1), and push reuses free nodes first. Index 0 is reserved as the
// list terminator.
type nodeSlab struct {
	chunks []*[nodeChunk]listNode
	used   int32 // indices handed out from chunks, the reserved 0 included
	free   int32 // head of the free list
}

func (s *nodeSlab) at(i int32) *listNode {
	return &s.chunks[uint32(i)/nodeChunk][uint32(i)%nodeChunk]
}

// push appends task to the list l.
func (s *nodeSlab) push(l *taskList, task int32) {
	i := s.free
	if i != 0 {
		s.free = s.at(i).next
	} else {
		if int(s.used) == len(s.chunks)*nodeChunk {
			s.chunks = append(s.chunks, new([nodeChunk]listNode))
			if s.used == 0 {
				s.used = 1
			}
		}
		i = s.used
		s.used++
	}
	*s.at(i) = listNode{task: task}
	if l.tail == 0 {
		l.head = i
	} else {
		s.at(l.tail).next = i
	}
	l.tail = i
}

// release empties l, returning its nodes to the free list.
func (s *nodeSlab) release(l *taskList) {
	if l.head == 0 {
		return
	}
	s.at(l.tail).next = s.free
	s.free = l.head
	*l = taskList{}
}
