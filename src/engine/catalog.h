// Per-node catalog: tables, indexes, storage objects.
#ifndef CITUSX_ENGINE_CATALOG_H_
#define CITUSX_ENGINE_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "storage/columnar.h"
#include "storage/heap.h"
#include "storage/index.h"

namespace citusx::engine {

/// One secondary index (B-tree or trigram GIN over an expression).
struct IndexInfo {
  std::string name;
  bool unique = false;
  std::vector<std::string> column_names;       // btree key columns
  std::unique_ptr<storage::BtreeIndex> btree;  // exactly one of btree/gin set
  std::unique_ptr<storage::GinTrgmIndex> gin;
  sql::ExprPtr expression;  // gin: text expression over the row
};

/// One table: either heap (default) or columnar storage.
struct TableInfo {
  std::string name;
  uint64_t oid = 0;
  std::unique_ptr<storage::HeapTable> heap;
  std::unique_ptr<storage::ColumnarTable> columnar;
  std::vector<std::unique_ptr<IndexInfo>> indexes;
  std::vector<std::string> primary_key;
  storage::BtreeIndex* pk_index = nullptr;  // owned by indexes

  const sql::Schema& schema() const {
    return heap != nullptr ? heap->schema() : columnar->schema();
  }
  bool is_columnar() const { return columnar != nullptr; }
  int64_t data_bytes() const {
    return heap != nullptr ? heap->data_bytes() : columnar->data_bytes();
  }
};

class Catalog {
 public:
  explicit Catalog(storage::BufferPool* pool) : pool_(pool) {}

  /// Create a heap (or columnar) table with optional primary-key index.
  Result<TableInfo*> CreateTable(const std::string& name, sql::Schema schema,
                                 const std::vector<std::string>& primary_key,
                                 bool columnar = false);

  Result<IndexInfo*> CreateBtreeIndex(const std::string& table,
                                      const std::string& index_name,
                                      const std::vector<std::string>& columns,
                                      bool unique);

  Result<IndexInfo*> CreateGinIndex(const std::string& table,
                                    const std::string& index_name,
                                    sql::ExprPtr expression);

  Status DropTable(const std::string& name);

  /// nullptr if absent.
  TableInfo* Find(const std::string& name);
  const TableInfo* Find(const std::string& name) const;

  Result<TableInfo*> Get(const std::string& name);

  std::vector<TableInfo*> AllTables();

 private:
  storage::BufferPool* pool_;
  std::map<std::string, std::unique_ptr<TableInfo>> tables_;
  uint64_t next_oid_ = 1000;
};

}  // namespace citusx::engine

#endif  // CITUSX_ENGINE_CATALOG_H_
