// Package plan defines physical query plans: trees whose nodes are data
// operators (table scanning, joining, aggregation, ...), matching the plan
// representation LOAM consumes for both execution and encoding.
package plan

import "fmt"

// OpType identifies a physical operator. The simulator supports the 30
// operator types the paper cites for MaxCompute; the encoder one-hot encodes
// this value.
type OpType int

// Physical operator types.
const (
	OpTableScan OpType = iota + 1
	OpFilter
	OpCalc // combined filter + projection
	OpProject
	OpHashJoin
	OpMergeJoin
	OpNestedLoopJoin
	OpBroadcastJoin
	OpSemiJoin
	OpAntiJoin
	OpHashAggregate
	OpSortAggregate
	OpPartialAggregate
	OpFinalAggregate
	OpDistinct
	OpSort
	OpLocalSort
	OpTopN
	OpLimit
	OpExchange // data reshuffle across machines: stage boundary
	OpBroadcastExchange
	OpSpool // materialize-and-reuse buffer
	OpLazySpool
	OpUnion
	OpWindow
	OpExpand
	OpValues
	OpSample
	OpSelect // final result projection
	OpSink   // result writer
)

// NumOpTypes is the size of the operator one-hot encoding.
const NumOpTypes = int(OpSink)

var opNames = [...]string{
	OpTableScan:         "TableScan",
	OpFilter:            "Filter",
	OpCalc:              "Calc",
	OpProject:           "Project",
	OpHashJoin:          "HashJoin",
	OpMergeJoin:         "MergeJoin",
	OpNestedLoopJoin:    "NestedLoopJoin",
	OpBroadcastJoin:     "BroadcastJoin",
	OpSemiJoin:          "SemiJoin",
	OpAntiJoin:          "AntiJoin",
	OpHashAggregate:     "HashAggregate",
	OpSortAggregate:     "SortAggregate",
	OpPartialAggregate:  "PartialAggregate",
	OpFinalAggregate:    "FinalAggregate",
	OpDistinct:          "Distinct",
	OpSort:              "Sort",
	OpLocalSort:         "LocalSort",
	OpTopN:              "TopN",
	OpLimit:             "Limit",
	OpExchange:          "Exchange",
	OpBroadcastExchange: "BroadcastExchange",
	OpSpool:             "Spool",
	OpLazySpool:         "LazySpool",
	OpUnion:             "Union",
	OpWindow:            "Window",
	OpExpand:            "Expand",
	OpValues:            "Values",
	OpSample:            "Sample",
	OpSelect:            "Select",
	OpSink:              "Sink",
}

// String returns the operator's name.
func (o OpType) String() string {
	if o >= 1 && int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// IsJoin reports whether the operator combines two inputs on a join
// condition.
func (o OpType) IsJoin() bool {
	switch o {
	case OpHashJoin, OpMergeJoin, OpNestedLoopJoin, OpBroadcastJoin, OpSemiJoin, OpAntiJoin:
		return true
	default:
		return false
	}
}

// IsAggregate reports whether the operator groups and aggregates its input.
func (o OpType) IsAggregate() bool {
	switch o {
	case OpHashAggregate, OpSortAggregate, OpPartialAggregate, OpFinalAggregate, OpDistinct:
		return true
	default:
		return false
	}
}

// IsExchange reports whether the operator reshuffles data across machines
// and therefore starts a new stage below it.
func (o OpType) IsExchange() bool {
	return o == OpExchange || o == OpBroadcastExchange
}

// IsFilterLike reports whether the operator applies a predicate.
func (o OpType) IsFilterLike() bool {
	return o == OpFilter || o == OpCalc
}

// JoinForm is the logical form of a join. It is 32 bits wide so that
// Node.Slot fits beside it (see TestPlanNodeSize).
type JoinForm int32

// Join forms, one-hot encoded by the plan vectorizer.
const (
	JoinInner JoinForm = iota + 1
	JoinLeft
	JoinRight
	JoinFull
	JoinSemi
	JoinAnti
)

// NumJoinForms is the size of the join-form one-hot encoding.
const NumJoinForms = int(JoinAnti)

var joinFormNames = [...]string{
	JoinInner: "inner",
	JoinLeft:  "left",
	JoinRight: "right",
	JoinFull:  "full",
	JoinSemi:  "semi",
	JoinAnti:  "anti",
}

// String returns the join form's name.
func (f JoinForm) String() string {
	if f >= 1 && int(f) < len(joinFormNames) {
		return joinFormNames[f]
	}
	return fmt.Sprintf("JoinForm(%d)", int(f))
}

// AggFunc is an aggregation function.
type AggFunc int

// Aggregation functions, one-hot encoded by the plan vectorizer.
const (
	AggSum AggFunc = iota + 1
	AggCount
	AggAvg
	AggMin
	AggMax
	AggCountDistinct
)

// NumAggFuncs is the size of the aggregation-function one-hot encoding.
const NumAggFuncs = int(AggCountDistinct)

var aggNames = [...]string{
	AggSum:           "SUM",
	AggCount:         "COUNT",
	AggAvg:           "AVG",
	AggMin:           "MIN",
	AggMax:           "MAX",
	AggCountDistinct: "COUNT_DISTINCT",
}

// String returns the aggregation function's name.
func (a AggFunc) String() string {
	if a >= 1 && int(a) < len(aggNames) {
		return aggNames[a]
	}
	return fmt.Sprintf("AggFunc(%d)", int(a))
}
