// Package summarycheck is the fixture corpus for the suppression-hygiene
// self-check: ignores must carry a reason and name real analyzers, and
// ignore-begin/ignore-end pairs must balance. A directive is the whole
// comment, so the expectations live in TestSummaryCheckFixture rather
// than trailing `// want` comments.
package summarycheck

func reasonless() {
	//boltvet:ignore errflow
	_ = 1
}

func unknownName() {
	//boltvet:ignore snycerr -- typo in the analyzer name
	_ = 1
}

// reasoned is the negative: a well-formed suppression produces nothing.
func reasoned() {
	//boltvet:ignore errflow -- fixture: well-formed directive
	_ = 1
}

func blockReasonless() {
	//boltvet:ignore-begin errflow
	_ = 1
	//boltvet:ignore-end
}

func blockUnknownName() {
	//boltvet:ignore-begin snycerr -- typo in a block directive
	_ = 1
	//boltvet:ignore-end
}

func blockOrphanEnd() {
	//boltvet:ignore-end
	_ = 1
}

// blockGood is the negative: a balanced, reasoned pair produces nothing.
func blockGood() {
	//boltvet:ignore-begin errflow -- fixture: well-formed block
	_ = 1
	//boltvet:ignore-end
}

// misspelled carries directives whose verbs are outside the vocabulary:
// each would otherwise leave its type, field or spawn silently unchecked.
//
//boltvet:mustclos
type misspelled struct {
	n int //boltvet:gaurdedby mu
}

func spawnMisspelled(ch chan int) {
	//boltvet:gorutine n -- typo in the verb
	go func() { ch <- 1 }()
}

// blockUnterminated must stay last in the file: its begin would otherwise
// pair with a later function's end.
func blockUnterminated() {
	//boltvet:ignore-begin errflow -- fixture: begin with no end
	_ = 1
}
